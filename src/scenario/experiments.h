// Experiment harnesses shared by the benches and integration tests.
//
// run_duel() stages the paper's central confrontation: an introspection
// mechanism (SATIN or a degenerate baseline) in the secure world versus
// TZ-Evader in the normal world, then correlates prober detections with
// ground-truth secure-world activity to compute the §VI-B1 statistics
// (rounds, alarms, target-area hits, false positives/negatives, gaps).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "attack/evader.h"
#include "core/satin.h"
#include "scenario/scenario.h"

namespace satin::scenario {

// Ground-truth log of secure-world stays (the experiment's oracle; not
// visible to the attack, which only sees the availability side channel).
class SecureActivityLog final : public hw::WorldListener {
 public:
  struct Interval {
    hw::CoreId core = -1;
    sim::Time entry;
    sim::Time exit;
    bool closed = false;
  };

  explicit SecureActivityLog(hw::Platform& platform);
  ~SecureActivityLog() override;

  void on_secure_entry(hw::CoreId core, sim::Time when) override;
  void on_secure_exit(hw::CoreId core, sim::Time when) override;

  const std::vector<Interval>& intervals() const { return intervals_; }
  std::size_t stay_count() const { return intervals_.size(); }

 private:
  hw::Platform& platform_;
  std::vector<Interval> intervals_;
  std::vector<int> open_;  // per-core index into intervals_, -1 if none
};

struct DuelConfig {
  core::SatinConfig satin;
  attack::EvaderConfig evader;
  // Stop once this many introspection rounds completed.
  std::uint64_t rounds_target = 190;
  // Hard wall on simulated time (safety for misconfigured runs).
  double max_sim_seconds = 2.0e4;
};

struct DuelReport {
  std::uint64_t rounds = 0;
  std::uint64_t alarms = 0;
  std::uint64_t full_cycles = 0;
  int target_area = -1;
  std::uint64_t target_area_rounds = 0;
  std::uint64_t target_area_alarms = 0;
  // Average time between consecutive checks of the target area (§VI-B1
  // reports 141 s).
  double avg_target_gap_s = 0.0;
  // Ground truth vs prober.
  std::uint64_t secure_stays = 0;
  std::uint64_t prober_detections = 0;
  std::uint64_t false_positives = 0;
  std::uint64_t false_negatives = 0;
  // Attack bookkeeping.
  std::uint64_t evasions_started = 0;
  std::uint64_t rearms = 0;
  double sim_seconds = 0.0;
  // Resilience bookkeeping (all zero unless SatinConfig::resilience opts
  // in and/or a fault plan is armed).
  std::uint64_t confirmed_alarms = 0;
  std::uint64_t transient_alarms = 0;
  // Confirmed-tamper alarms outside the target area: under bit-flip
  // faults this must stay zero (transients never escalate to confirmed).
  std::uint64_t benign_confirmed_alarms = 0;
  std::uint64_t watchdog_fires = 0;
  std::uint64_t scan_retries = 0;

  // §VI-B1 success criterion: SATIN examined the target area at least
  // once, and every such round raised an alarm, confirmed or transient.
  // Under a fault storm it is also the resilience criterion: injected
  // faults caused no missed detection. The prober's false positives and
  // negatives are not part of it.
  bool satin_always_caught() const {
    return target_area_rounds > 0 && target_area_alarms == target_area_rounds;
  }
  // Attack success criterion (§IV-C): armed rounds over the target area
  // never alarmed.
  bool evader_always_escaped() const {
    return target_area_rounds > 0 && target_area_alarms == 0;
  }
};

// One duel in three stages: the constructor performs the full setup
// (trusted boot, prober deployment and 10 ms warm-up, SATIN start,
// rootkit install), advance() runs one slice of simulated time, finish()
// stops both sides and correlates detections against ground truth.
// run_duel() is exactly construct + advance(1 s) until done + finish; the
// campaign trial reaches it through run_single_duel(), and perfbench's
// traced replay calls the stages itself to time each one.
class DuelTrial {
 public:
  DuelTrial(Scenario& scenario, const DuelConfig& config);

  bool done() const;
  void advance(sim::Duration quantum);
  // Call exactly once, after done(); the trial is spent afterwards.
  DuelReport finish();

 private:
  struct Detection {
    hw::CoreId core = -1;
    sim::Time when;
  };

  Scenario& scenario_;
  DuelConfig config_;
  SecureActivityLog activity_;
  core::Satin satin_;
  std::vector<Detection> detections_;
  attack::TzEvader evader_;
  sim::Time start_;
  sim::Time deadline_;
};

DuelReport run_duel(Scenario& scenario, const DuelConfig& config);

// One fully-specified duel, start to finish: builds a Scenario from
// `scenario_config`, arms `fault_spec` (src/fault/plan.h grammar; empty =
// fault-free), runs the duel, and snapshots the engine's self-metrics
// (without host wall time) into the installed metrics registry. This is
// the unit of work a campaign trial or fault-storm replica executes —
// everything it touches is derived from its arguments, so a call is
// bit-identical whether it runs inline, on a worker thread, or in a
// forked worker process. Throws std::invalid_argument on a malformed
// fault spec.
struct SingleDuelResult {
  DuelReport report;
  std::uint64_t faults_injected = 0;
};

SingleDuelResult run_single_duel(const ScenarioConfig& scenario_config,
                                 const DuelConfig& duel,
                                 const std::string& fault_spec = {});

}  // namespace satin::scenario
