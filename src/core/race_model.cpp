#include "core/race_model.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

namespace satin::core {

RaceParams worst_case_params(const hw::TimingParams& timing) {
  RaceParams p;
  p.ts_switch_s = timing.switch_max_s;               // 3.60e-6
  p.ts_1byte_s = timing.hash_per_byte_a57.min_s;     // 6.67e-9 (fastest)
  p.tns_sched_s = timing.kprober_sleep_s;            // 2e-4
  p.tns_threshold_s = timing.cross_core.worst_case_threshold_s;  // 1.8e-3
  // §IV-C uses the slowest observed recovery, 6.13e-3 s.
  p.tns_recover_s = timing.recover_a53.max_s;
  return p;
}

bool attacker_escapes(const RaceParams& p, std::size_t s_bytes) {
  const double defender =
      p.ts_switch_s + static_cast<double>(s_bytes) * p.ts_1byte_s;
  const bool escapes = defender > p.tns_delay_s() + p.tns_recover_s;
  if (escapes) {
    SATIN_METRIC_INC("race.model_escapes");
  } else {
    SATIN_METRIC_INC("race.model_caught");
  }
  return escapes;
}

std::size_t max_safe_area_bytes(const RaceParams& p) {
  const double bound =
      (p.tns_delay_s() + p.tns_recover_s - p.ts_switch_s) / p.ts_1byte_s;
  if (bound <= 0.0) return 0;
  // Round to nearest: the paper reports 1,218,351 B for its constants.
  return static_cast<std::size_t>(std::llround(bound));
}

double unprotected_fraction(const RaceParams& p, std::size_t kernel_bytes) {
  if (kernel_bytes == 0) return 0.0;
  const std::size_t safe = std::min(max_safe_area_bytes(p), kernel_bytes);
  return 1.0 - static_cast<double>(safe) / static_cast<double>(kernel_bytes);
}

}  // namespace satin::core
