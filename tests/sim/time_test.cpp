#include "sim/time.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace satin::sim {
namespace {

TEST(Time, DefaultIsZero) {
  EXPECT_EQ(Time().ps(), 0);
  EXPECT_TRUE(Time().is_zero());
  EXPECT_EQ(Time::zero(), Time());
}

TEST(Time, IntegerFactories) {
  EXPECT_EQ(Time::from_ps(7).ps(), 7);
  EXPECT_EQ(Time::from_ns(3).ps(), 3'000);
  EXPECT_EQ(Time::from_us(2).ps(), 2'000'000);
  EXPECT_EQ(Time::from_ms(5).ps(), 5'000'000'000);
  EXPECT_EQ(Time::from_sec(1).ps(), 1'000'000'000'000);
}

TEST(Time, FractionalFactoriesRoundToNearestPicosecond) {
  EXPECT_EQ(Time::from_ns_f(6.67).ps(), 6'670);
  EXPECT_EQ(Time::from_sec_f(6.67e-9).ps(), 6'670);
  EXPECT_EQ(Time::from_us_f(0.0000005).ps(), 1);  // 0.5 ps rounds up
  EXPECT_EQ(Time::from_ms_f(-1.0).ps(), -1'000'000'000);
}

TEST(Time, UnitAccessors) {
  const Time t = Time::from_ps(1'234'000);
  EXPECT_DOUBLE_EQ(t.ns(), 1'234.0);
  EXPECT_DOUBLE_EQ(t.us(), 1.234);
  EXPECT_NEAR(t.ms(), 1.234e-3, 1e-15);
  EXPECT_NEAR(t.sec(), 1.234e-6, 1e-18);
}

TEST(Time, TotalOrder) {
  EXPECT_LT(Time::from_ns(1), Time::from_ns(2));
  EXPECT_GT(Time::from_sec(1), Time::from_ms(999));
  EXPECT_EQ(Time::from_us(1000), Time::from_ms(1));
  EXPECT_LE(Time::from_ps(5), Time::from_ps(5));
}

TEST(Time, Arithmetic) {
  const Time a = Time::from_us(3);
  const Time b = Time::from_us(2);
  EXPECT_EQ((a + b).us(), 5.0);
  EXPECT_EQ((a - b).us(), 1.0);
  EXPECT_EQ((a * 4).us(), 12.0);
  EXPECT_EQ((4 * a).us(), 12.0);
  EXPECT_EQ((a / 3).us(), 1.0);
}

TEST(Time, ScalarMultiplyRounds) {
  EXPECT_EQ((Time::from_ps(10) * 0.25).ps(), 3);  // 2.5 rounds to 3
  EXPECT_EQ((Time::from_ns(100) * 1.5).ps(), 150'000);
}

TEST(Time, RatioOfSpans) {
  EXPECT_DOUBLE_EQ(Time::from_ms(10) / Time::from_ms(4), 2.5);
}

TEST(Time, CompoundAssignment) {
  Time t = Time::from_ns(10);
  t += Time::from_ns(5);
  EXPECT_EQ(t, Time::from_ns(15));
  t -= Time::from_ns(20);
  EXPECT_EQ(t, Time::from_ns(-5));
}

TEST(Time, MaxIsHuge) {
  // int64 picoseconds reach ~106 days; 100 days is inside the range.
  EXPECT_GT(Time::max(), Time::from_sec(100 * 86'400));
}

TEST(Time, ToStringUsesScientificSeconds) {
  EXPECT_EQ(Time::from_sec_f(8.04e-2).to_string(), "8.040e-02 s");
  EXPECT_EQ(Time::from_ns_f(6.67).to_string(), "6.670e-09 s");
}

TEST(Time, SubNanosecondResolutionForTable1) {
  // Table I distinguishes 6.67e-9 from 6.71e-9 s: 40 fs apart per byte,
  // 4 ps per 100 bytes — representable.
  const Time a = Time::from_sec_f(6.67e-9 * 100);
  const Time b = Time::from_sec_f(6.71e-9 * 100);
  EXPECT_NE(a, b);
}

// The fractional factories route through time_detail::llround_exact — a
// branch-light, libm-free llround the draw kernels can vectorize through.
// It must be bit-exact against std::llround (round to nearest, ties away
// from zero) everywhere the factories can see.
TEST(Time, LlroundExactMatchesStdLlroundOnEdgeCases) {
  const double cases[] = {
      0.0,       -0.0,      0.5,       -0.5,       1.5,     -1.5,
      2.5,       -2.5,      0.49999999999999994,   // largest double < 0.5
      -0.49999999999999994,  1e-300,   -1e-300,
      4503599627370495.5,    // 2^52 - 0.5: largest representable .5 tie
      -4503599627370495.5,   2251799813685248.75,  // 2^51 + 0.75
      -2251799813685248.75,  0x1p52,   -0x1p52,    0x1p52 + 2.0,
      -0x1p52 - 2.0,         0x1p62,   -0x1p62,    6.67e2, 1.234e6,
  };
  for (const double x : cases) {
    EXPECT_EQ(time_detail::llround_exact(x), std::llround(x)) << "x = " << x;
  }
}

TEST(Time, LlroundExactMatchesStdLlroundRandomized) {
  std::mt19937_64 g(46);
  for (int i = 0; i < 200000; ++i) {
    double x;
    switch (i % 4) {
      case 0:  // typical seconds-to-picoseconds magnitudes
        x = std::uniform_real_distribution<double>(-1e9, 1e9)(g);
        break;
      case 1:  // small values rounding to 0 or +-1
        x = std::uniform_real_distribution<double>(-2.0, 2.0)(g);
        break;
      case 2:  // exact .5 ties of both signs
        x = static_cast<double>(
                std::uniform_int_distribution<std::int64_t>(-(1ll << 50),
                                                            1ll << 50)(g)) +
            0.5;
        break;
      default:  // around the 2^52 integer threshold
        x = std::uniform_real_distribution<double>(0x1p51, 0x1p53)(g);
        if (i % 8 >= 4) x = -x;
        break;
    }
    ASSERT_EQ(time_detail::llround_exact(x), std::llround(x))
        << "x = " << std::hexfloat << x;
  }
}

}  // namespace
}  // namespace satin::sim
