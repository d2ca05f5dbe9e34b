#include "fault/plan.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace satin::fault {
namespace {

using sim::Duration;
using sim::Time;

TEST(FaultPlan, EmptySpecYieldsEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse("   ").empty());
  EXPECT_TRUE(FaultPlan::parse(" , ,").empty());
}

TEST(FaultPlan, ParsesEveryKind) {
  const FaultPlan plan = FaultPlan::parse(
      "timer-misfire@1s+2s,timer-drift@1s+2s,irq-lost@1s+2s,"
      "irq-spurious@1s+2s,smc-fail@1s+2s,bitflip@1s+2s,core-off@1s+2s");
  ASSERT_EQ(plan.faults.size(), 7u);
  EXPECT_EQ(plan.faults[0].kind, FaultKind::kTimerMisfire);
  EXPECT_EQ(plan.faults[1].kind, FaultKind::kTimerDrift);
  EXPECT_EQ(plan.faults[2].kind, FaultKind::kIrqLost);
  EXPECT_EQ(plan.faults[3].kind, FaultKind::kIrqSpurious);
  EXPECT_EQ(plan.faults[4].kind, FaultKind::kSmcFail);
  EXPECT_EQ(plan.faults[5].kind, FaultKind::kBitFlip);
  EXPECT_EQ(plan.faults[6].kind, FaultKind::kCoreOffline);
}

TEST(FaultPlan, ParsesWindowAndParameters) {
  const FaultPlan plan = FaultPlan::parse(
      "seed=42,timer-drift@1.5s+500ms:core=3:p=0.25:drift=2ms");
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.faults.size(), 1u);
  const FaultSpec& f = plan.faults[0];
  EXPECT_EQ(f.start, Time::from_ms(1500));
  EXPECT_EQ(f.duration, Duration::from_ms(500));
  EXPECT_EQ(f.end(), Time::from_sec(2));
  EXPECT_EQ(f.core, 3);
  EXPECT_DOUBLE_EQ(f.probability, 0.25);
  EXPECT_EQ(f.drift, Duration::from_ms(2));
}

TEST(FaultPlan, TimeUnitsAndBareSeconds) {
  const FaultPlan plan = FaultPlan::parse(
      "bitflip@250ms+10:flips=3,irq-spurious@1us+900ns:period=50ps");
  ASSERT_EQ(plan.faults.size(), 2u);
  EXPECT_EQ(plan.faults[0].start, Time::from_ms(250));
  EXPECT_EQ(plan.faults[0].duration, Duration::from_sec(10));
  EXPECT_EQ(plan.faults[0].flips, 3);
  EXPECT_EQ(plan.faults[1].start, Time::from_us(1));
  EXPECT_EQ(plan.faults[1].duration, Duration::from_ns(900));
  EXPECT_EQ(plan.faults[1].period, Duration::from_ps(50));
}

TEST(FaultPlan, WindowContainsAndTargets) {
  FaultSpec f;
  f.start = Time::from_sec(10);
  f.duration = Duration::from_sec(5);
  EXPECT_FALSE(f.contains(Time::from_sec_f(9.999)));
  EXPECT_TRUE(f.contains(Time::from_sec(10)));
  EXPECT_TRUE(f.contains(Time::from_sec_f(14.999)));
  EXPECT_FALSE(f.contains(Time::from_sec(15)));  // half-open
  EXPECT_TRUE(f.targets(0));
  EXPECT_TRUE(f.targets(5));
  f.core = 2;
  EXPECT_TRUE(f.targets(2));
  EXPECT_FALSE(f.targets(3));
}

TEST(FaultPlan, RoundTripsThroughToString) {
  // Field values, not strings, are compared: two strings printed with the
  // same rounding would agree while p lost its last digits.
  const char* spec =
      "seed=7,timer-misfire@10s+30s:p=0.5,bitflip@5s+60s:flips=2,"
      "core-off@20s+15s:core=1,timer-drift@1s+2s:drift=800ms,"
      "irq-spurious@3s+4s:period=250ms,irq-lost@2s+5s:p=0.123456789";
  const FaultPlan plan = FaultPlan::parse(spec);
  ASSERT_EQ(plan.faults.size(), 6u);
  EXPECT_EQ(plan.faults[5].probability, 0.123456789);
  const FaultPlan reparsed = FaultPlan::parse(plan.to_string());
  EXPECT_EQ(reparsed.seed, plan.seed);
  ASSERT_EQ(reparsed.faults.size(), plan.faults.size());
  for (std::size_t i = 0; i < plan.faults.size(); ++i) {
    const FaultSpec& want = plan.faults[i];
    const FaultSpec& got = reparsed.faults[i];
    EXPECT_EQ(got.kind, want.kind) << i;
    EXPECT_EQ(got.start, want.start) << i;
    EXPECT_EQ(got.duration, want.duration) << i;
    EXPECT_EQ(got.core, want.core) << i;
    EXPECT_EQ(got.probability, want.probability) << i;
    EXPECT_EQ(got.drift, want.drift) << i;
    EXPECT_EQ(got.period, want.period) << i;
    EXPECT_EQ(got.flips, want.flips) << i;
  }
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("frobnicate@1s+2s"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("timer-misfire"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("timer-misfire@1s"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("timer-misfire@1s+abc"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("timer-misfire@1s+2s:p=1.5"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("timer-misfire@1s+2s:wat=1"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("timer-misfire@1s+2s:core"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("bitflip@1s+2s:flips=0"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("irq-spurious@1s+2s:period=0s"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("timer-misfire@1s+0s"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("timer-misfire@1parsec+2s"),
               std::invalid_argument);
}

TEST(FaultPlan, RejectsNumericEdgeCases) {
  // Trailing junk after an otherwise-valid number.
  EXPECT_THROW(FaultPlan::parse("timer-misfire@1s+2s:p=0.5x"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("bitflip@1s+2s:flips=3junk"),
               std::invalid_argument);
  // Non-finite values.
  EXPECT_THROW(FaultPlan::parse("timer-misfire@1s+2s:p=nan"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("timer-misfire@inf+2s"),
               std::invalid_argument);
  // Integer overflow must be an error, not a silent wrap.
  EXPECT_THROW(FaultPlan::parse("bitflip@1s+2s:core=99999999999999999999"),
               std::invalid_argument);
  // Duration overflow past the picosecond tick range.
  EXPECT_THROW(FaultPlan::parse("bitflip@1s+1e300s"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("bitflip@1e12s+1s"), std::invalid_argument);
  // Negative window start.
  EXPECT_THROW(FaultPlan::parse("bitflip@-1s+2s"), std::invalid_argument);
}

TEST(FaultPlan, RejectsMalformedSeeds) {
  EXPECT_THROW(FaultPlan::parse("seed=abc,bitflip@1s+2s"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("seed=,bitflip@1s+2s"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("seed=-3,bitflip@1s+2s"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("seed=12x,bitflip@1s+2s"),
               std::invalid_argument);
}

TEST(FaultPlan, NumericDiagnosticsNameTheOffendingToken) {
  const auto expect_mentions = [](const char* spec, const char* token) {
    try {
      FaultPlan::parse(spec);
      FAIL() << "expected std::invalid_argument for: " << spec;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(token), std::string::npos)
          << spec << " -> " << e.what();
    }
  };
  expect_mentions("timer-misfire@1s+2s:p=0.5x", "0.5x");
  expect_mentions("seed=abc,bitflip@1s+2s", "seed=abc");
  expect_mentions("bitflip@1s+1e300s", "1e300s");
  expect_mentions("bitflip@1s+2s:core=99999999999999999999",
                  "99999999999999999999");
}

TEST(FaultPlan, ErrorMessagesNameTheOffendingItem) {
  try {
    FaultPlan::parse("timer-misfire@1s+2s,borked@3s+4s");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("borked"), std::string::npos);
  }
}

TEST(FaultPlan, KindNamesRoundTrip) {
  for (int k = 0; k < kFaultKindCount; ++k) {
    const auto kind = static_cast<FaultKind>(k);
    const std::string spec =
        std::string(to_string(kind)) + "@1s+2s";
    const FaultPlan plan = FaultPlan::parse(spec);
    ASSERT_EQ(plan.faults.size(), 1u) << spec;
    EXPECT_EQ(plan.faults[0].kind, kind);
  }
}

}  // namespace
}  // namespace satin::fault
