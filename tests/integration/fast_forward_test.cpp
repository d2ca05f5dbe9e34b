// The duty-cycle fast path against its oracle (DESIGN.md §19). A core
// whose only thread declares a duty cycle runs its wake-ups and
// completions as keyed engine actions; os::CyclePath::kEventPerRound runs
// every one as a queue event through the full scheduler. The two must be
// indistinguishable except for the engine's own counters. This file
// drives both paths by hand, step by step, and compares everything a step
// could have touched; whole campaign trials on both paths (journal
// record, metrics, flight stream) are compared in
// tests/integration/oracle_sweep_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "attack/prober.h"
#include "obs/flight/recorder.h"
#include "scenario/scenario.h"
#include "sim/parallel.h"

namespace satin {
namespace {

using os::CyclePath;
using sim::Duration;
using sim::Time;

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
