#include "sim/fastmath.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>

namespace satin::sim {
namespace {

std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

// Distance in representable doubles, monotone across zero.
long long ulp_diff(double a, double b) {
  std::int64_t ia = static_cast<std::int64_t>(bits_of(a));
  std::int64_t ib = static_cast<std::int64_t>(bits_of(b));
  if (ia < 0) ia = std::numeric_limits<std::int64_t>::min() - ia;
  if (ib < 0) ib = std::numeric_limits<std::int64_t>::min() - ib;
  const long long d = static_cast<long long>(ia - ib);
  return d < 0 ? -d : d;
}

// The envelope the draw models rely on: measured max over 4M samples was
// 2 ulp (log) / 1 ulp (exp); the bounds leave one ulp of slack so a
// compiler update can't flake the suite, while still catching any real
// regression in the polynomials or reductions.
constexpr long long kLogUlpBound = 3;
constexpr long long kExpUlpBound = 2;

TEST(FastMath, LogStaysWithinUlpEnvelopeOfLibm) {
  std::mt19937_64 g(42);
  for (int i = 0; i < 300000; ++i) {
    double x;
    if (i % 3 == 0) {
      x = std::uniform_real_distribution<double>(0.5, 2.0)(g);  // near 1
    } else if (i % 3 == 1) {
      x = std::uniform_real_distribution<double>(0.0, 1.0)(g);  // canonical
      if (x == 0.0) continue;
    } else {
      // Random positive bit patterns: every finite exponent, denormals too.
      const std::uint64_t u = g() & 0x7FFFFFFFFFFFFFFFull;
      std::memcpy(&x, &u, sizeof(x));
      if (!(x > 0.0) || std::isinf(x)) continue;
    }
    ASSERT_LE(ulp_diff(fm_log(x), std::log(x)), kLogUlpBound)
        << "x = " << std::hexfloat << x;
  }
}

TEST(FastMath, ExpStaysWithinUlpEnvelopeOfLibm) {
  std::mt19937_64 g(43);
  for (int i = 0; i < 300000; ++i) {
    const double x =
        (i % 2) ? std::uniform_real_distribution<double>(-746.0, 710.0)(g)
                : std::uniform_real_distribution<double>(-20.0, 5.0)(g);
    ASSERT_LE(ulp_diff(fm_exp(x), std::exp(x)), kExpUlpBound)
        << "x = " << std::hexfloat << x;
  }
}

TEST(FastMath, ExpCoreAgreesWithFullDomainInsideWindow) {
  // fm_exp dispatches to fm_exp_core across [-708, 692], so the two must
  // be the same function there — bit for bit, not within tolerance.
  std::mt19937_64 g(44);
  for (int i = 0; i < 200000; ++i) {
    const double x = std::uniform_real_distribution<double>(-708.0, 692.0)(g);
    ASSERT_EQ(bits_of(fm_exp_core(x)), bits_of(fm_exp(x)))
        << "x = " << std::hexfloat << x;
  }
}

TEST(FastMath, LogSpecialValues) {
  EXPECT_EQ(fm_log(0.0), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(fm_log(-0.0), -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(fm_log(-1.0)));
  EXPECT_EQ(fm_log(std::numeric_limits<double>::infinity()),
            std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(fm_log(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_EQ(fm_log(1.0), 0.0);
}

TEST(FastMath, ExpSpecialValues) {
  EXPECT_EQ(fm_exp(0.0), 1.0);
  EXPECT_TRUE(std::isnan(fm_exp(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_EQ(fm_exp(std::numeric_limits<double>::infinity()),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(fm_exp(710.0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(fm_exp(-750.0), 0.0);
  EXPECT_EQ(fm_exp(-std::numeric_limits<double>::infinity()), 0.0);
}

// Golden bit patterns: the run of record depends on these exact outputs
// (every jitter draw routes through fm_log, spikes through fm_exp). A
// change here is a stream shift and must be deliberate, like PR-8's.
TEST(FastMath, LogGoldenBits) {
  const struct {
    double x;
    std::uint64_t want;
  } kGolden[] = {
      {0.5, 0xBFE62E42FEFA39EFull},
      {0.66710392964029952, 0xBFD9E865CE4B3090ull},
      {0.99999999999999989, 0xBCA0000000000000ull},
      {1.0000000000000002, 0x3CB0000000000000ull},
      {2.0, 0x3FE62E42FEFA39EFull},
      {2.3e-4, 0xC020C13EAB2E3D5Full},
      {1e-300, 0xC085963447F87FB5ull},
      {4.9406564584124654e-324, 0xC0874385446D71C3ull},  // least denormal
      {1.7976931348623157e308, 0x40862E42FEFA39EFull},   // DBL_MAX
  };
  for (const auto& gc : kGolden) {
    EXPECT_EQ(bits_of(fm_log(gc.x)), gc.want) << "x = " << gc.x;
  }
}

TEST(FastMath, ExpGoldenBits) {
  const struct {
    double x;
    std::uint64_t want;
  } kGolden[] = {
      {-1.0, 0x3FD78B56362CEF38ull},
      {0.5, 0x3FFA61298E1E069Cull},
      {-8.3804330961644293, 0x3F2E0E632503EB30ull},  // duel lognormal mu
      {13.2, 0x41207D99DFDECC61ull},
      {-181.85050748229287, 0x2F8905DA05A31396ull},
      {691.9, 0x7E52635915893A02ull},   // core window edge
      {-707.9, 0x001A4904F4342894ull},  // core window edge
      {700.0, 0x7F0D945DF4F8EC8Eull},   // tail path
      {-740.0, 0x0000000000000055ull},  // gradual underflow, tail path
      {709.78, 0x7FEFE9CE5C4C52B4ull},  // just under overflow
  };
  for (const auto& gc : kGolden) {
    EXPECT_EQ(bits_of(fm_exp(gc.x)), gc.want) << "x = " << gc.x;
  }
}

TEST(FastMath, LogDenormalPrescaleIsExact) {
  // The 2^54 prescale is a pure exponent shift for any denormal; verify
  // the repaired result tracks libm through the whole denormal range.
  std::mt19937_64 g(45);
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t u = g() & 0x000FFFFFFFFFFFFFull;  // exponent 0
    if (u == 0) continue;
    double x;
    std::memcpy(&x, &u, sizeof(x));
    ASSERT_LE(ulp_diff(fm_log(x), std::log(x)), kLogUlpBound)
        << "bits = 0x" << std::hex << u;
  }
}

}  // namespace
}  // namespace satin::sim
