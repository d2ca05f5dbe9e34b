// The exact result of adding one double to another n times in a row.
//
// RichOs charges a loop burst's n equal CFS slices to a thread's vruntime
// as n rounded additions (DESIGN.md §19): one product would round
// differently. repeated_add() returns the same bits as that loop without
// making every add. Inside one binade of v, every ulp is the same power
// of two u, and v is a multiple of it, so each add of s moves v by
// round(s / u) ulps (ties to the even multiple): an add that lands inside
// the binade is that many ulps, and a run of them is one product. The add
// that leaves the binade is made as a plain add. A tie (s / u an odd
// multiple of one half) from an odd multiple steps once, which leaves v
// an even multiple of u; from there every add moves by the same even
// count. s below half an ulp moves v no more. The cost is O(binades
// crossed) integer steps, so small counts, most calls, stay a plain loop.
#pragma once

#include <bit>
#include <cstdint>

namespace satin::sim {

inline double repeated_add(double v, double s, std::uint64_t n) {
  // Below this count the plain loop is cheaper than the bit arithmetic.
  constexpr std::uint64_t kLoopBelow = 16;
  constexpr std::uint64_t kImplicit = std::uint64_t{1} << 52;
  if (n < kLoopBelow || !(v >= 0.0) || !(s > 0.0)) {
    for (; n > 0; --n) v += s;
    return v;
  }
  while (n > 0) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    const std::uint64_t biased = bits >> 52;
    // Zero, a binade whose ulp is not a normal double, or the top binade:
    // one plain add.
    if (biased <= 52 || biased >= 0x7FE) {
      v += s;
      --n;
      continue;
    }
    // ulp(v) = 2^(biased - 1075), a normal power of two.
    const double u = std::bit_cast<double>((biased - 52) << 52);
    const double q = s / u;  // exact: a power-of-two scale
    if (!(q < static_cast<double>(kImplicit))) {  // 2^52 ulps or more
      v += s;
      --n;
      continue;
    }
    const auto whole = static_cast<std::uint64_t>(q);  // floor, q >= 0
    const double frac = q - static_cast<double>(whole);
    const bool tie = frac == 0.5;
    if (tie && (bits & 1) != 0) {
      // A tie from an odd multiple of u: one plain add makes it even.
      v += s;
      --n;
      continue;
    }
    // Ulps per add: round to nearest, a tie to the even count.
    const std::uint64_t step =
        frac < 0.5 ? whole : (tie && whole % 2 == 0 ? whole : whole + 1);
    if (step == 0) return v;  // s is below half an ulp: v stays
    // v = m·u with m the significand; the binade's top is 2^53·u, so the
    // adds that end strictly below it number (2^53 - m - 1) / step.
    const std::uint64_t m = (bits & (kImplicit - 1)) | kImplicit;
    const std::uint64_t fits = (2 * kImplicit - m - 1) / step;
    if (fits > 0) {
      const std::uint64_t k = fits < n ? fits : n;
      v += static_cast<double>(k * step) * u;  // exact: on the grid, below
      n -= k;                                   // the top
      if (n == 0) break;
    }
    // The add that reaches or crosses the top.
    v += s;
    --n;
  }
  return v;
}

}  // namespace satin::sim
