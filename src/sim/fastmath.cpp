#include "sim/fastmath.h"

#include <cmath>

namespace satin::sim::fm_detail {

double fm_exp_tail(double x) {
  // Exclusive domains (the dispatcher routes |x| into exactly one path),
  // so this and fm_exp_core never need to agree bit for bit.
  int k = 0;
  const double er = fm_exp_reduced(x, k);
  // Power-of-two scaling is exact except into the subnormal range, where
  // ldexp rounds correctly — deterministic either way.
  return std::ldexp(er, k);
}

}  // namespace satin::sim::fm_detail
