// End-to-end: the SATIN-vs-evader duel under the full fault storm from
// examples/fault_storm.cpp. Self-healing must preserve the detection
// guarantee — every pass over the tampered area flagged, no benign area
// ever confirmed tampered — and the whole storm must be deterministic.
#include <gtest/gtest.h>

#include "fault/injector.h"
#include "scenario/experiments.h"
#include "scenario/scenario.h"

namespace satin::scenario {
namespace {

constexpr char kStorm[] =
    "seed=9,"
    "timer-misfire@5s+30s:p=0.35,"
    "irq-lost@20s+40s:p=0.3,"
    "smc-fail@45s+30s:p=0.25,"
    "timer-drift@70s+40s:p=0.5:drift=800ms,"
    "irq-spurious@95s+20s:p=0.3:period=2s,"
    "bitflip@10s+130s:p=0.12,"
    "core-off@110s+25s:core=3";

DuelConfig storm_duel() {
  DuelConfig duel;
  duel.satin.tgoal_s = 57.0;  // tp = 3 s
  duel.rounds_target = 57;    // three full kernel cycles
  duel.satin.resilience.watchdog = true;
  duel.satin.resilience.max_scan_retries = 2;
  duel.satin.resilience.adapt_offline = true;
  return duel;
}

struct StormRun {
  DuelReport report;
  std::uint64_t injected_total = 0;
  std::uint64_t injected_bitflips = 0;
};

StormRun run_storm() {
  Scenario system;
  const auto injector = fault::install_from_spec(system.platform(), kStorm);
  StormRun out;
  out.report = run_duel(system, storm_duel());
  out.injected_total = injector->injected_total();
  out.injected_bitflips = injector->injected(fault::FaultKind::kBitFlip);
  return out;
}

TEST(FaultStorm, DetectionGuaranteeSurvivesTheStorm) {
  const StormRun run = run_storm();
  const DuelReport& r = run.report;

  // The storm actually happened and self-healing actually worked.
  EXPECT_GT(run.injected_total, 0u);
  EXPECT_GT(run.injected_bitflips, 0u);
  EXPECT_GT(r.watchdog_fires, 0u) << "misfires must trip the watchdog";
  EXPECT_GT(r.scan_retries, 0u) << "bit-flips must trigger rescans";
  EXPECT_GT(r.transient_alarms, 0u)
      << "injected flips must classify transient";

  // Acceptance criteria: the duel completes despite the faults, the
  // rootkit is flagged on every pass over its area, and no glitch is
  // ever mistaken for tampering.
  EXPECT_GE(r.rounds, 57u);
  EXPECT_GE(r.full_cycles, 3u);
  ASSERT_GT(r.target_area_rounds, 0u);
  EXPECT_TRUE(r.satin_always_caught())
      << r.target_area_alarms << " of " << r.target_area_rounds
      << " target-area rounds flagged";
  EXPECT_EQ(r.benign_confirmed_alarms, 0u)
      << "a transient glitch escalated to confirmed tamper";
  EXPECT_GT(r.confirmed_alarms, 0u)
      << "the persistent rootkit must confirm at least once";
}

TEST(FaultStorm, StormIsDeterministic) {
  const StormRun a = run_storm();
  const StormRun b = run_storm();
  EXPECT_EQ(a.injected_total, b.injected_total);
  EXPECT_EQ(a.injected_bitflips, b.injected_bitflips);
  EXPECT_EQ(a.report.rounds, b.report.rounds);
  EXPECT_EQ(a.report.alarms, b.report.alarms);
  EXPECT_EQ(a.report.confirmed_alarms, b.report.confirmed_alarms);
  EXPECT_EQ(a.report.transient_alarms, b.report.transient_alarms);
  EXPECT_EQ(a.report.watchdog_fires, b.report.watchdog_fires);
  EXPECT_EQ(a.report.scan_retries, b.report.scan_retries);
  EXPECT_EQ(a.report.target_area_rounds, b.report.target_area_rounds);
  EXPECT_EQ(a.report.target_area_alarms, b.report.target_area_alarms);
  EXPECT_EQ(a.report.secure_stays, b.report.secure_stays);
  EXPECT_EQ(a.report.sim_seconds, b.report.sim_seconds);
}

}  // namespace
}  // namespace satin::scenario
