// In-repo log/exp for the draw pipeline.
//
// PR-5 moved the engine and distribution adaptors in-repo so recorded
// outputs could never shift under a libstdc++ update; the draws still
// leaned on glibc's log/exp, which pins every recorded stream to one libm
// build AND blocks the batched pipeline — a vector lane must produce the
// exact bits the scalar oracle produces, and no two libm builds (let
// alone a vector math library) agree to the last bit. These routines
// close that hole: straight-line IEEE-754 double arithmetic, no tables,
// no FMA, no data-dependent branches in the *_core paths, so the same
// source compiled scalar or auto-vectorized at any ISA width yields
// bit-identical results lane for lane (add/mul/div/sqrt/compare/convert
// are IEEE-exact at every width; the build pins -ffp-contract=off).
//
// Accuracy is a couple of ulp — calibrated jitter models do not need
// correctly-rounded libm — and tests/sim/fastmath_test.cpp pins both the
// ulp envelope against libm and golden bit patterns so the functions can
// never drift quietly.
//
// SATIN_FM_INLINE forces inlining: kernel translation units are compiled
// per-ISA (sim/rng_kernels.inc), and a stray out-of-line comdat copy
// picked from the widest TU could otherwise be linked into scalar code
// running on a narrower machine.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>

#if defined(__GNUC__)
#define SATIN_FM_INLINE inline __attribute__((always_inline))
#else
#define SATIN_FM_INLINE inline
#endif

namespace satin::sim {

namespace fm_detail {

// 2^-0.5-centered split of ln 2 (fdlibm): the hi part has 27 trailing
// zero bits, so e * kLn2Hi is exact for every exponent |e| <= 2^26.
inline constexpr double kLn2Hi =
    std::bit_cast<double>(std::uint64_t{0x3FE62E42FEE00000ull});
inline constexpr double kLn2Lo =
    std::bit_cast<double>(std::uint64_t{0x3DEA39EF35793C76ull});
inline constexpr double kInvLn2 =
    std::bit_cast<double>(std::uint64_t{0x3FF71547652B82FEull});
inline constexpr double kSqrt2 =
    std::bit_cast<double>(std::uint64_t{0x3FF6A09E667F3BCDull});
// sqrt(2)/2: the lower edge of the log recentring interval. Same mantissa
// as kSqrt2, one exponent down — the carry trick in fm_log_finite leans
// on exactly that relation.
inline constexpr std::uint64_t kHalfSqrt2Bits = 0x3FE6A09E667F3BCDull;

// exp(x) = er * 2^k with er in [0.70, 1.42]: the range reduction and
// polynomial fm_exp_core and fm_exp_tail share. They differ only in how
// they scale er by 2^k.
SATIN_FM_INLINE double fm_exp_reduced(double x, int& k) {
  // Nearest integer multiple of ln 2 via the shift trick (|t| << 2^51,
  // so adding/subtracting 1.5 * 2^52 rounds t to an exact integer).
  const double t = x * kInvLn2;
  const double kd = (t + 0x1.8p52) - 0x1.8p52;
  // int32, not int64: |k| <= 1024, and AVX2 has no 64-bit-int <-> double
  // conversion, so a long long here would keep callers' loops scalar.
  k = static_cast<int>(kd);
  // Reduced argument r = x - k ln2, |r| <= ln2/2 + eps. kd * kLn2Hi is
  // exact (27 spare mantissa bits against |k| <= 1024).
  const double r = (x - kd * kLn2Hi) - kd * kLn2Lo;
  // Taylor through r^13/13!: < 0.1 ulp truncation at |r| <= 0.347.
  const double r2 = r * r;
  double p = 1.0 / 6227020800.0;
  p = p * r + 1.0 / 479001600.0;
  p = p * r + 1.0 / 39916800.0;
  p = p * r + 1.0 / 3628800.0;
  p = p * r + 1.0 / 362880.0;
  p = p * r + 1.0 / 40320.0;
  p = p * r + 1.0 / 5040.0;
  p = p * r + 1.0 / 720.0;
  p = p * r + 1.0 / 120.0;
  p = p * r + 1.0 / 24.0;
  p = p * r + 1.0 / 6.0;
  p = p * r + 0.5;
  return (r + r2 * p) + 1.0;
}

// Tail scaling for |x| outside the single-add window: fm_exp_reduced,
// scaled by ldexp (exact, including gradual underflow).
double fm_exp_tail(double x);

}  // namespace fm_detail

// log(x) for positive finite x (normal or denormal). Genuinely
// branch-free AND select-free: GCC at default -ftrapping-math refuses to
// if-convert a `cond ? a*b : a` select (the speculated multiply could
// raise a spurious flag), which kept every loop over this function
// scalar. The denormal prescale is therefore an *unconditional* multiply
// by a mask-selected scale, and the [sqrt(1/2), sqrt(2)) recentring uses
// the fdlibm carry trick — adding (1.0 - sqrt2/2) to the raw bits
// carries into the exponent field exactly when the mantissa is >= that
// of sqrt 2, which is bit-for-bit the old `m >= kSqrt2 ? m/2 : m`
// select (differentially verified over the full positive-finite bit
// range). The exponent converts through int32, not int64: AVX2 has no
// 64-bit-int <-> double conversion, and one scalar cvt would have kept
// the whole loop scalar. Do NOT call with x <= 0, inf or NaN — fm_log
// below handles the full domain.
SATIN_FM_INLINE double fm_log_finite(double x) {
  using namespace fm_detail;
  // Denormals: prescale into the normal range, repair the exponent.
  const std::uint64_t denmask = -static_cast<std::uint64_t>(x < 0x1p-1022);
  const double scale = std::bit_cast<double>(
      (denmask & std::bit_cast<std::uint64_t>(0x1p54)) |
      (~denmask & std::bit_cast<std::uint64_t>(1.0)));
  const double eadj =
      std::bit_cast<double>(denmask & std::bit_cast<std::uint64_t>(54.0));
  const double xs = x * scale;
  // Mantissa recentred to [sqrt(1/2), sqrt(2)) so f = m - 1 is small on
  // both sides of 1 and the atanh series never sees cancellation.
  const std::uint64_t ix =
      std::bit_cast<std::uint64_t>(xs) + (0x3FF0000000000000ull - kHalfSqrt2Bits);
  const double e =
      static_cast<double>(static_cast<int>(ix >> 52) - 1023) - eadj;
  const double m =
      std::bit_cast<double>((ix & 0x000FFFFFFFFFFFFFull) + kHalfSqrt2Bits);
  const double f = m - 1.0;
  // log(m) = 2 atanh(s) with s = f/(2+f): odd series in s, even in z.
  // Terms through z^9 leave < 0.1 ulp of truncation at |s| <= 0.1716.
  const double s = f / (2.0 + f);
  const double z = s * s;
  double r = 2.0 / 19.0;
  r = r * z + 2.0 / 17.0;
  r = r * z + 2.0 / 15.0;
  r = r * z + 2.0 / 13.0;
  r = r * z + 2.0 / 11.0;
  r = r * z + 2.0 / 9.0;
  r = r * z + 2.0 / 7.0;
  r = r * z + 2.0 / 5.0;
  r = r * z + 2.0 / 3.0;
  const double lnm = 2.0 * s + s * (z * r);
  return e * kLn2Hi + (lnm + e * kLn2Lo);
}

// Full-domain log: matches libm's special-value contract (sans errno).
SATIN_FM_INLINE double fm_log(double x) {
  if (x > 0.0 && x < std::numeric_limits<double>::infinity()) {
    return fm_log_finite(x);
  }
  if (x == 0.0) return -std::numeric_limits<double>::infinity();
  if (x < 0.0) return std::numeric_limits<double>::quiet_NaN();
  return x;  // +inf or NaN propagate
}

// exp(x) for x in [-708, 692]: the range where the result scale fits a
// single exponent-field add. Branch-free; the full-domain fm_exp below
// routes the extreme tails elsewhere.
SATIN_FM_INLINE double fm_exp_core(double x) {
  int k = 0;
  const double er = fm_detail::fm_exp_reduced(x, k);
  // Scaling er by 2^k is one exponent-field add.
  return std::bit_cast<double>(
      std::bit_cast<std::uint64_t>(er) +
      (static_cast<std::uint64_t>(static_cast<std::int64_t>(k)) << 52));
}

// Full-domain exp: matches libm's special-value contract (sans errno).
SATIN_FM_INLINE double fm_exp(double x) {
  if (x != x) return x;                       // NaN
  if (x > 709.782712893384) {                 // overflow (and +inf)
    return std::numeric_limits<double>::infinity();
  }
  if (x < -746.0) return 0.0;                 // below least subnormal
  if (x > 692.0 || x < -708.0) return fm_detail::fm_exp_tail(x);
  return fm_exp_core(x);
}

}  // namespace satin::sim
