// sim::repeated_add against the loop it stands for, bit for bit.
#include "sim/repeated_add.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/rng.h"

namespace satin::sim {
namespace {

double loop_add(double v, double s, std::uint64_t n) {
  for (; n > 0; --n) v += s;
  return v;
}

void expect_same(double v, double s, std::uint64_t n) {
  const double want = loop_add(v, s, n);
  const double got = repeated_add(v, s, n);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << "v=" << std::hexfloat << v << " s=" << s << std::defaultfloat
      << " n=" << n;
}

// ulp(v) for a positive normal v.
double ulp(double v) { return std::nextafter(v, INFINITY) - v; }

TEST(RepeatedAdd, MatchesTheLoopOnRandomCases) {
  Rng rng(20261019);
  for (int i = 0; i < 20000; ++i) {
    const double v =
        std::ldexp(rng.uniform(), static_cast<int>(rng.index(60)) - 30);
    const double s = std::ldexp(rng.uniform() + 0.5,
                                static_cast<int>(rng.index(80)) - 60);
    expect_same(v, s, rng.index(3000));
  }
}

TEST(RepeatedAdd, MatchesTheLoopOnAdversarialCases) {
  std::vector<double> values = {0.0, 1.0, 0.75, 1e-3, 123.456,
                                std::ldexp(1.0, 20)};
  for (int e : {-20, -1, 0, 1, 7}) {
    const double top = std::ldexp(1.0, e);
    // Just below and at binade edges.
    values.push_back(std::nextafter(top, 0.0));
    values.push_back(top - 3 * ulp(top / 2));
    values.push_back(top);
  }
  for (const double v : values) {
    const double u = v > 0.0 ? ulp(v) : std::ldexp(1.0, -1074);
    const std::vector<double> steps = {
        u / 4,           // below half an ulp: v stays
        u / 2,           // an exact half-ulp tie
        u * 1.5,         // ties with an odd whole part
        u * 2.5,         // ties with an even whole part
        u * 3,           // whole ulps
        u * 0.7,         // rounds up to one ulp
        u * 1.3,         // rounds down to one ulp
        u * 1e6 + u / 2,  // a tie many ulps wide
        4e-5,            // syscall_overhead's 40 us iteration, in seconds
        2e-6, 1e-9, 0.125};
    for (const double s : steps) {
      if (!(s > 0.0)) continue;
      for (const std::uint64_t n : {15ull, 16ull, 17ull, 100ull, 4097ull}) {
        expect_same(v, s, n);
      }
      // Odd and even starting mantissas for the ties.
      expect_same(std::nextafter(v + 1.0, INFINITY), s, 1000);
    }
  }
}

TEST(RepeatedAdd, MatchesTheLoopOverMillionsOfSteps) {
  // Runs that cross many binades and end deep in one.
  expect_same(0.0, 4e-5, 2'000'000);
  expect_same(1e-9, 3.3e-7, 2'000'000);
  expect_same(0.5, 1.0 / 3.0, 2'000'000);
  expect_same(7.0, std::ldexp(1.0, -30) * 1.5, 2'000'000);
}

}  // namespace
}  // namespace satin::sim
