// The cycle fast path against its oracle (DESIGN.md §19). A core whose
// only thread declares a duty cycle (KProber-II) or a loop (a
// mini-UnixBench program) runs its wake-ups and completions as keyed
// engine actions; os::CyclePath::kEventPerRound runs every one as a queue
// event through the full scheduler. The two must be indistinguishable
// except for the engine's own counters. This file drives both paths by
// hand, step by step, and compares everything a step could have touched;
// whole campaign trials and UnixBench passes on both paths (journal
// record or scores, metrics, flight stream) are compared in
// tests/integration/oracle_sweep_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/prober.h"
#include "obs/flight/recorder.h"
#include "scenario/scenario.h"
#include "sim/parallel.h"
#include "workload/unixbench.h"

namespace satin {
namespace {

using os::CyclePath;
using sim::Duration;
using sim::Time;

// Everything a step of either path could have touched: the clock, the
// run's own `counters`, the dispatches, the flight stream and each core's
// idle time, run-queue length and running thread.
std::string fingerprint(scenario::Scenario& system,
                        const obs::FlightRecorder& flight,
                        const std::string& counters) {
  std::ostringstream out;
  os::RichOs& os = system.os();
  sim::Engine& engine = system.engine();
  out << "t=" << engine.now().ps() << " " << counters
      << " dispatches=" << engine.events_fired() + engine.keyed_fired()
      << " chain=" << flight.chain_hash() << " commits=" << flight.commits();
  for (int c = 0; c < system.platform().num_cores(); ++c) {
    const os::Thread* t = os.running_thread(c);
    out << " | core" << c << " idle=" << os.idle_time(c).ps()
        << " runnable=" << os.runnable_count(c)
        << " running=" << (t != nullptr ? t->name() : "-");
  }
  return out.str();
}

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

  std::string fingerprint() {
    return satin::fingerprint(
        *system, flight,
        "rounds=" + std::to_string(prober->rounds()) +
            " detections=" + std::to_string(prober->detection_count()));
  }

  obs::FlightRecorder flight;
  std::unique_ptr<scenario::Scenario> system;
  std::unique_ptr<attack::KProber> prober;
};

// Drives both paths through `drive` and expects identical fingerprints
// after every call.
template <typename Run, typename Drive>
void expect_identical_runs(Run& oracle, Run& fast, const Drive& drive) {
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

template <typename Drive>
void expect_identical_runs(attack::ProbeMode mode, const Drive& drive) {
  ProberRun oracle(CyclePath::kEventPerRound, mode);
  ProberRun fast(CyclePath::kFastForward, mode);
  expect_identical_runs(oracle, fast, drive);
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

// --- Loops -----------------------------------------------------------------

const workload::WorkloadSpec& syscall_overhead() {
  for (const workload::WorkloadSpec& spec : workload::unixbench_suite()) {
    if (spec.name == "syscall_overhead") return spec;
  }
  throw std::logic_error("no syscall_overhead in the suite");
}

// A booted system running `copies` mini-UnixBench syscall_overhead loops
// (40 µs iterations, the densest program), placed as the harness places
// them, its flight stream recorded, on one path.
struct LoopRun {
  LoopRun(CyclePath path, int copies)
      : path(path), flight(ProberRun::options()) {
    scenario::ScenarioConfig config;
    config.os.cycle_path = path;
    system = std::make_unique<scenario::Scenario>(config);
    for (int i = 0; i < copies; ++i) {
      loops.push_back(static_cast<workload::WorkloadThread*>(
          system->os().add_thread(
              std::make_unique<workload::WorkloadThread>(syscall_overhead()))));
    }
  }
  sim::Engine& engine() { return system->engine(); }
  std::uint64_t iterations() const {
    std::uint64_t total = 0;
    for (const workload::WorkloadThread* loop : loops) {
      total += loop->iterations();
    }
    return total;
  }

  std::string fingerprint() {
    return satin::fingerprint(*system, flight,
                              "iterations=" + std::to_string(iterations()));
  }

  CyclePath path;
  obs::FlightRecorder flight;
  std::unique_ptr<scenario::Scenario> system;
  std::vector<workload::WorkloadThread*> loops;
};

template <typename Drive>
void expect_identical_loop_runs(int copies, const Drive& drive) {
  LoopRun oracle(CyclePath::kEventPerRound, copies);
  LoopRun fast(CyclePath::kFastForward, copies);
  expect_identical_runs(oracle, fast, drive);
}

TEST(CycleFastForward, LoopStepWalksTheSameDispatchesOneAtATime) {
  expect_identical_loop_runs(1, [](LoopRun& run, int stage) {
    if (stage == 0) {
      run.system->run_for(Duration::from_ms(5));
      return true;
    }
    EXPECT_TRUE(run.engine().step());
    return stage < 400;
  });
}

TEST(CycleFastForward, LoopRunLimitsInsideIterations) {
  // 1 µs limits across a dozen 40 µs iterations: most land inside one,
  // with its completion still armed.
  int inside = 0;
  expect_identical_loop_runs(1, [&](LoopRun& run, int stage) {
    const std::uint64_t before = run.iterations();
    run.system->run_for(stage == 0 ? Duration::from_ms(5)
                                   : Duration::from_ns(1000));
    if (stage > 0 && run.iterations() == before) ++inside;
    return stage < 500;
  });
  EXPECT_GT(inside, 0);
}

TEST(CycleFastForward, StopAndPenaltyWhileACompletionIsArmed) {
  // The harness adds a penalty and requests a stop between engine runs;
  // each lands inside an iteration, whose completion then diverts the
  // loop to next_action(): a penalty compute, then the exit.
  expect_identical_loop_runs(1, [](LoopRun& run, int stage) {
    workload::WorkloadThread& loop = *run.loops[0];
    const std::uint64_t keyed = run.engine().keyed_fired();
    const std::uint64_t iterations = loop.iterations();
    if (stage == 0) {
      run.system->run_for(Duration::from_us(5'013));
    } else if (stage == 1) {
      loop.add_penalty(Duration::from_us(300));
      run.system->run_for(Duration::from_us(200));
      // The armed iteration completed, then the penalty began.
      EXPECT_EQ(loop.iterations(), iterations + 1);
      if (run.path == CyclePath::kFastForward) {
        EXPECT_EQ(run.engine().keyed_fired(), keyed + 1);
      }
    } else if (stage == 20) {
      run.system->run_for(Duration::from_us(17));
      loop.request_stop();
      run.system->run_for(Duration::from_us(60));
      EXPECT_TRUE(loop.stopped());
    } else {
      run.system->run_for(Duration::from_us(23));
    }
    return stage < 30;
  });
}

TEST(CycleFastForward, CfsThreadOnTheLoopCoreHandsBackAndRejoins) {
  // A CFS hog lands on the loop's core mid-run: the loop falls back to
  // the event path, the two share the core by the CFS quantum, and the
  // loop rejoins the fast path once the hog exits.
  std::uint64_t keyed_after_hog = 0;
  expect_identical_loop_runs(1, [&](LoopRun& run, int stage) {
    const os::Thread* loop = run.loops[0];
    if (stage == 1) {
      int computes = 0;
      auto hog = std::make_unique<os::FunctionThread>(
          "hog", [computes](os::OsContext&) mutable -> os::Action {
            if (++computes > 12) return os::ExitAction{};
            return os::ComputeAction{Duration::from_ms(1), nullptr};
          });
      hog->pin_to_core(loop->current_core());
      run.system->os().add_thread(std::move(hog));
      EXPECT_EQ(run.system->os().runnable_count(loop->current_core()), 2);
    }
    const std::uint64_t keyed = run.engine().keyed_fired();
    run.system->run_for(Duration::from_us(1'700));
    if (stage == 30 && run.path == CyclePath::kFastForward) {
      EXPECT_EQ(run.system->os().runnable_count(loop->current_core()), 1);
      keyed_after_hog = run.engine().keyed_fired() - keyed;
    }
    return stage < 30;
  });
  // 1.7 ms of 40 µs iterations, nearly all on keyed completions.
  EXPECT_GT(keyed_after_hog, 30u);
}

TEST(CycleFastForward, SevenLoopsOnSixCoresLeaveTheSharedCoreOnEvents) {
  // Five cores run one loop each on keyed completions; the sixth shares
  // two loops, is never eligible, and completes every iteration of both
  // as a queue event.
  LoopRun oracle(CyclePath::kEventPerRound, 7);
  LoopRun fast(CyclePath::kFastForward, 7);
  expect_identical_runs(oracle, fast, [](LoopRun& run, int stage) {
    run.system->run_for(Duration::from_ms(3));
    return stage < 30;
  });
  const hw::CoreId shared = fast.loops[6]->current_core();
  std::uint64_t shared_iterations = 0;
  for (const workload::WorkloadThread* loop : fast.loops) {
    if (loop->current_core() == shared) shared_iterations += loop->iterations();
  }
  EXPECT_EQ(fast.system->os().runnable_count(shared), 2);
  EXPECT_GT(shared_iterations, 1'000u);
  EXPECT_GE(fast.engine().events_fired(), shared_iterations);
  EXPECT_GE(fast.engine().keyed_fired(),
            fast.iterations() - shared_iterations - 5);
}

}  // namespace
}  // namespace satin
