// The duty-cycle fast path against its oracle (DESIGN.md §19). A core
// whose only thread declares a duty cycle runs its wake-ups and
// completions as keyed engine actions; os::CyclePath::kEventPerRound runs
// every one as a queue event through the full scheduler. The two must be
// indistinguishable except for the engine's own counters: the same
// journal record, the same metrics once engine.* is dropped, and the same
// flight stream, commit for commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/prober.h"
#include "campaign/spec.h"
#include "campaign/trial.h"
#include "obs/flight/recorder.h"
#include "obs/metrics.h"
#include "scenario/scenario.h"
#include "sim/parallel.h"

namespace satin {
namespace {

using os::CyclePath;
using sim::Duration;
using sim::Time;

// perfbench's campaign workloads (perfbench/satin_perfbench.cpp), one
// trial at a time. `root_offset` is the input set's root-seed offset.
std::string spec_text(const std::string& body, std::uint64_t root_offset) {
  return "{\"trials\": 100, \"root_seed\": " +
         std::to_string(0x5A7100000ull + root_offset) + ",\n" + body + "}";
}

// The duel workload, cut from 38 to 12 simulated seconds.
const std::string kDuelBody =
    "\"satin\": {\"tgoal_s\": 19.0, \"randomize_wake\": true},"
    "\"duel\": {\"rounds_target\": 1000000, \"max_sim_seconds\": 12.0}";
const std::string kFleetBody =
    "\"satin\": {\"tgoal_s\": 1.9, \"randomize_wake\": true},"
    "\"duel\": {\"rounds_target\": 4}";
// The storm workload: all seven fault kinds.
const std::string kStormBody =
    "\"satin\": {\"tgoal_s\": 57.0, \"randomize_wake\": true,"
    "  \"resilience\": {\"watchdog\": true, \"max_scan_retries\": 2,"
    "                   \"adapt_offline\": true}},"
    "\"duel\": {\"rounds_target\": 1000000, \"max_sim_seconds\": 57.0},"
    "\"faults\": \"seed=9,timer-misfire@2s+10s:p=0.35,irq-lost@7s+13s:p=0.3,"
    "smc-fail@15s+10s:p=0.25,timer-drift@23s+13s:p=0.5:drift=800ms,"
    "irq-spurious@32s+7s:p=0.3:period=2s,bitflip@3s+43s:p=0.04,"
    "core-off@37s+8s:core=3\","
    "\"faults_reseed\": true";

// What one campaign trial leaves behind.
struct TrialOutcome {
  std::string record;   // journal line, or the failure message
  std::string metrics;  // stable JSON snapshot without engine.* lines
  std::uint64_t flight_chain = 0;
  std::uint64_t flight_commits = 0;
  double dispatches = 0.0;  // engine.events_fired + engine.keyed_fired
  double keyed = 0.0;
  std::uint64_t reentries = 0;
};

std::string drop_engine_lines(const std::string& json) {
  std::istringstream in(json);
  std::string out, line;
  while (std::getline(in, line)) {
    if (line.find("\"engine.") == std::string::npos) out += line + "\n";
  }
  return out;
}

double gauge_of(const obs::MetricsRegistry& r, const char* name) {
  const obs::Gauge* g = r.find_gauge(name);
  return g != nullptr ? g->value() : 0.0;
}

TrialOutcome run_trial(const std::string& text, std::uint64_t index,
                       CyclePath path) {
  campaign::CampaignSpec spec = campaign::parse_campaign_spec(text, "test");
  spec.scenario.os.cycle_path = path;
  obs::MetricsRegistry registry;
  obs::FlightRecorder::Options flight_options;
  flight_options.ring = 1024;  // the chain still folds every commit
  obs::FlightRecorder flight(flight_options);
  TrialOutcome out;
  {
    sim::TrialObsScope sinks(&registry, nullptr, &flight);
    try {
      out.record = campaign::encode_trial_record(
          campaign::run_campaign_trial(spec, index));
    } catch (const std::exception& e) {
      out.record = std::string("failed: ") + e.what();
    }
  }
  out.metrics = drop_engine_lines(registry.to_json(/*include_volatile=*/false));
  out.flight_chain = flight.chain_hash();
  out.flight_commits = flight.commits();
  out.keyed = gauge_of(registry, "engine.keyed_fired");
  out.dispatches = gauge_of(registry, "engine.events_fired") + out.keyed;
  if (const obs::Counter* c = registry.find_counter("hw.secure_reentries")) {
    out.reentries = c->value();
  }
  return out;
}

// Whether the trial reached a secure re-entry; vacuous when the metric
// macros are compiled out (-DSATIN_ENABLE_OBS=OFF).
bool reentered(const TrialOutcome& outcome) {
#if SATIN_OBS_ENABLED
  return outcome.reentries > 0;
#else
  (void)outcome;
  return true;
#endif
}

// Runs trial `index` on both paths and checks they agree; returns the
// fast path's outcome.
TrialOutcome expect_identical_trial(const std::string& text,
                                    std::uint64_t index) {
  const TrialOutcome oracle = run_trial(text, index, CyclePath::kEventPerRound);
  const TrialOutcome fast = run_trial(text, index, CyclePath::kFastForward);
  EXPECT_EQ(fast.record, oracle.record);
  EXPECT_EQ(fast.metrics, oracle.metrics);
  EXPECT_EQ(fast.flight_commits, oracle.flight_commits);
  EXPECT_EQ(fast.flight_chain, oracle.flight_chain);
  EXPECT_EQ(fast.dispatches, oracle.dispatches);
  EXPECT_EQ(oracle.keyed, 0.0);
  return fast;
}

TEST(CycleFastForward, DuelTrialMatchesTheEventPath) {
  const TrialOutcome fast = expect_identical_trial(spec_text(kDuelBody, 0), 0);
  // Nearly every dispatch was a fast-forwarded prober step.
  EXPECT_GT(fast.keyed, 0.9 * fast.dispatches);
}

TEST(CycleFastForward, FleetReentryTrialMatchesTheEventPath) {
  // Input set 5, trial 68: the prober runs through a stay that re-entered
  // during its exit notification (ROADMAP, open defects).
  const TrialOutcome fast =
      expect_identical_trial(spec_text(kFleetBody, 5), 68);
  EXPECT_TRUE(reentered(fast));
  EXPECT_NE(fast.record.find(" fn=1 "), std::string::npos) << fast.record;
}

TEST(CycleFastForward, StormReentryTrialWithEveryFaultKindMatchesTheEventPath) {
  // Input set 10, trial 5: all seven fault kinds, and a re-entered stay.
  const TrialOutcome fast =
      expect_identical_trial(spec_text(kStormBody, 10), 5);
  EXPECT_TRUE(reentered(fast));
  EXPECT_NE(fast.record.find(" inj="), std::string::npos) << fast.record;
  EXPECT_EQ(fast.record.find(" inj=0 "), std::string::npos) << fast.record;
}

TEST(CycleFastForward, FaultReproducerThrowsTheSameDiagnosticOnBothPaths) {
  // The fault reproducer of EXPERIMENTS.md ("Interned metric handles"):
  // trial 2 dies on a compute completion left queued by a re-entered
  // stay.
  const std::string text =
      R"({"trials":4,"root_seed":7,)"
      R"("satin":{"tgoal_s":12.0,"randomize_wake":true,"resilience":)"
      R"({"watchdog":true,"max_scan_retries":2,"adapt_offline":true}},)"
      R"("duel":{"rounds_target":1000000,"max_sim_seconds":20.0},)"
      R"("faults":"seed=9,timer-misfire@1s+5s:p=0.35,irq-lost@2s+5s:p=0.3,)"
      R"(smc-fail@4s+5s:p=0.25,timer-drift@6s+5s:p=0.5:drift=800ms,)"
      R"(irq-spurious@8s+4s:p=0.3:period=2s,bitflip@1s+15s:p=0.04,)"
      R"(core-off@12s+4s:core=3","faults_reseed":true})";
  const TrialOutcome fast = expect_identical_trial(text, 2);
  EXPECT_NE(fast.record.find("compute completion fired with no running "
                             "thread (core 0, last thread 'kprober/0'"),
            std::string::npos)
      << fast.record;
  EXPECT_TRUE(reentered(fast));
}

// --- Hand-driven scenarios -----------------------------------------------

// A booted system with KProber-II (or the user-level prober) on every
// core, its flight stream recorded, on one path.
struct ProberRun {
  ProberRun(CyclePath path, attack::ProbeMode mode) : flight(options()) {
    scenario::ScenarioConfig config;
    config.os.cycle_path = path;
    system = std::make_unique<scenario::Scenario>(config);
    attack::KProberConfig prober_config;
    prober_config.mode = mode;
    prober = std::make_unique<attack::KProber>(system->os(), prober_config);
    prober->deploy();
  }
  static obs::FlightRecorder::Options options() {
    obs::FlightRecorder::Options o;
    o.ring = 16;
    return o;
  }
  sim::Engine& engine() { return system->engine(); }

  // Everything a step of either path could have touched.
  std::string fingerprint() {
    std::ostringstream out;
    os::RichOs& os = system->os();
    out << "t=" << engine().now().ps() << " rounds=" << prober->rounds()
        << " detections=" << prober->detection_count()
        << " dispatches=" << engine().events_fired() + engine().keyed_fired()
        << " chain=" << flight.chain_hash() << " commits=" << flight.commits();
    for (int c = 0; c < system->platform().num_cores(); ++c) {
      const os::Thread* t = os.running_thread(c);
      out << " | core" << c << " idle=" << os.idle_time(c).ps()
          << " runnable=" << os.runnable_count(c)
          << " running=" << (t != nullptr ? t->name() : "-");
    }
    return out.str();
  }

  obs::FlightRecorder flight;
  std::unique_ptr<scenario::Scenario> system;
  std::unique_ptr<attack::KProber> prober;
};

// Drives both paths through `drive` and expects identical fingerprints
// after every call.
template <typename Drive>
void expect_identical_runs(attack::ProbeMode mode, const Drive& drive) {
  ProberRun oracle(CyclePath::kEventPerRound, mode);
  ProberRun fast(CyclePath::kFastForward, mode);
  for (int stage = 0;; ++stage) {
    bool more = false;
    {
      sim::TrialObsScope sinks(nullptr, nullptr, &oracle.flight);
      more = drive(oracle, stage);
    }
    {
      sim::TrialObsScope sinks(nullptr, nullptr, &fast.flight);
      EXPECT_EQ(drive(fast, stage), more);
    }
    ASSERT_EQ(fast.fingerprint(), oracle.fingerprint()) << "stage " << stage;
    if (!more) break;
  }
  EXPECT_EQ(oracle.engine().keyed_fired(), 0u);
  EXPECT_GT(fast.engine().keyed_fired(), 0u);
}

TEST(CycleFastForward, StepWalksTheSameDispatchesOneAtATime) {
  expect_identical_runs(attack::ProbeMode::kRtScheduler,
                        [](ProberRun& run, int stage) {
                          if (stage == 0) {
                            run.system->run_for(Duration::from_ms(5));
                            return true;
                          }
                          EXPECT_TRUE(run.engine().step());
                          return stage < 400;
                        });
}

TEST(CycleFastForward, RunLimitsBetweenAWakeAndItsCompletion) {
  // 1 µs limits across two and a half 202 µs rounds: some fall inside the
  // 2 µs computes, with the completions still armed.
  int mid_compute = 0;
  expect_identical_runs(attack::ProbeMode::kRtScheduler,
                        [&](ProberRun& run, int stage) {
                          run.system->run_for(stage == 0
                                                  ? Duration::from_ms(5)
                                                  : Duration::from_ns(1000));
                          if (run.system->os().running_thread(0) != nullptr) {
                            ++mid_compute;
                          }
                          return stage < 500;
                        });
  EXPECT_GT(mid_compute, 0);
}

TEST(CycleFastForward, RetractMidComputeParksTheProbers) {
  // Retracts while core 0's prober is mid-compute, then runs on: every
  // prober parks, waking each 100 ms to re-check.
  expect_identical_runs(
      attack::ProbeMode::kRtScheduler, [](ProberRun& run, int stage) {
        if (stage == 0) {
          run.system->run_for(Duration::from_ms(20));
          return true;
        }
        if (run.prober->deployed()) {
          if (run.system->os().running_thread(0) != nullptr) {
            run.prober->retract();
          } else {
            run.system->run_for(Duration::from_ns(500));
          }
          return true;
        }
        const std::uint64_t rounds = run.prober->rounds();
        run.system->run_for(Duration::from_ms(70));
        EXPECT_EQ(run.prober->rounds(), rounds);
        return run.engine().now() < Time::zero() + Duration::from_ms(700);
      });
}

TEST(CycleFastForward, UserLevelProberOnIdleCoresIsFastForwarded) {
  expect_identical_runs(attack::ProbeMode::kUserLevel,
                        [](ProberRun& run, int stage) {
                          run.system->run_for(Duration::from_ms(10));
                          return stage < 30;
                        });
}

TEST(CycleFastForward, AnotherThreadOnTheCoreHandsTheActionBack) {
  // A CFS hog lands on core 2 mid-run: the prober there falls back to the
  // event path and preempts the hog every round, then rejoins the fast
  // path once the hog exits.
  expect_identical_runs(
      attack::ProbeMode::kRtScheduler, [](ProberRun& run, int stage) {
        if (stage == 1) {
          int computes = 0;
          auto hog = std::make_unique<os::FunctionThread>(
              "hog", [computes](os::OsContext&) mutable -> os::Action {
                if (++computes > 40) return os::ExitAction{};
                return os::ComputeAction{Duration::from_us(300), nullptr};
              });
          hog->pin_to_core(2);
          run.system->os().add_thread(std::move(hog));
        }
        run.system->run_for(Duration::from_us(1'700));
        return stage < 20;
      });
}

}  // namespace
}  // namespace satin
