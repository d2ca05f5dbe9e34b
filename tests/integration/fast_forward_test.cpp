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

#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "attack/prober.h"
#include "core/satin.h"
#include "obs/flight/recorder.h"
#include "obs/metrics.h"
#include "scenario/experiments.h"
#include "scenario/scenario.h"
#include "sim/parallel.h"
#include "workload/unixbench.h"

namespace satin {
namespace os {

struct RichOsTestPeer {
  static const std::vector<std::unique_ptr<Thread>>& threads(const RichOs& os) {
    return os.threads_;
  }
};

}  // namespace os

namespace {

using os::CyclePath;
using sim::Duration;
using sim::Time;

// Everything a step of either path could have touched: the clock, the
// run's own `counters`, the dispatches, the flight stream, every metric,
// each core's idle time, run-queue length and running thread, and each
// thread's CPU time and CFS vruntime bits.
std::string fingerprint(scenario::Scenario& system,
                        const obs::FlightRecorder& flight,
                        const obs::MetricsRegistry& metrics,
                        const std::string& counters) {
  std::ostringstream out;
  os::RichOs& os = system.os();
  sim::Engine& engine = system.engine();
  out << "t=" << engine.now().ps() << " " << counters
      << " dispatches=" << engine.events_fired() + engine.keyed_fired()
      << " chain=" << flight.chain_hash() << " commits=" << flight.commits()
      << " metrics=" << metrics.to_json(/*include_volatile=*/false);
  for (int c = 0; c < system.platform().num_cores(); ++c) {
    const os::Thread* t = os.running_thread(c);
    out << " | core" << c << " idle=" << os.idle_time(c).ps()
        << " runnable=" << os.runnable_count(c)
        << " running=" << (t != nullptr ? t->name() : "-");
  }
  for (const auto& t : os::RichOsTestPeer::threads(os)) {
    out << " | " << t->name() << " cpu=" << t->cpu_time().ps() << " vruntime=0x"
        << std::hex << std::bit_cast<std::uint64_t>(t->vruntime_s())
        << std::dec;
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
        *system, flight, metrics,
        "rounds=" + std::to_string(prober->rounds()) +
            " detections=" + std::to_string(prober->detection_count()));
  }

  obs::FlightRecorder flight;
  obs::MetricsRegistry metrics;
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
      sim::TrialObsScope sinks(&oracle.metrics, &oracle.flight);
      more = drive(oracle, stage);
    }
    {
      sim::TrialObsScope sinks(&fast.metrics, &fast.flight);
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

// KProber-II's six tied probers against SATIN and the TZ-Evader, the way
// a duel trial runs them (§VI-B1), on one path. Every stay in the secure
// world freezes a core mid-window; the other cores' probers flag it, and
// the evader's recovery schedules queue events from inside the in-place
// run that the flagging round runs in.
struct DuelRun {
  explicit DuelRun(CyclePath path) : flight(ProberRun::options()) {
    scenario::ScenarioConfig config;
    config.os.cycle_path = path;
    system = std::make_unique<scenario::Scenario>(config);
    scenario::DuelConfig duel;
    duel.satin.tgoal_s = 1.9;  // a round every ~10 ms
    trial = std::make_unique<scenario::DuelTrial>(*system, duel);
  }
  sim::Engine& engine() { return system->engine(); }
  std::string fingerprint() {
    return satin::fingerprint(*system, flight, metrics, "");
  }

  obs::FlightRecorder flight;
  obs::MetricsRegistry metrics;
  std::unique_ptr<scenario::Scenario> system;
  std::unique_ptr<scenario::DuelTrial> trial;
};

TEST(CycleFastForward, TiedProbersFlagASecureStayInPlace) {
  DuelRun oracle(CyclePath::kEventPerRound);
  DuelRun fast(CyclePath::kFastForward);
  // 7 ms chunks, so stays begin and end inside runs and at their edges.
  expect_identical_runs(oracle, fast, [](DuelRun& run, int stage) {
    run.trial->advance(Duration::from_ms(7));
    return stage < 170;
  });
  scenario::DuelReport reports[2];
  for (DuelRun* run : {&oracle, &fast}) {
    const sim::TrialObsScope sinks(&run->metrics, &run->flight);
    reports[run == &fast ? 1 : 0] = run->trial->finish();
  }
  EXPECT_EQ(fast.fingerprint(), oracle.fingerprint());
  EXPECT_EQ(reports[1].prober_detections, reports[0].prober_detections);
  EXPECT_EQ(reports[1].evasions_started, reports[0].evasions_started);
  EXPECT_EQ(reports[1].rearms, reports[0].rearms);
  EXPECT_GT(reports[0].rounds, 10u);
  EXPECT_GT(reports[0].prober_detections, 0u);
  EXPECT_GT(reports[0].evasions_started, 0u);
  // The probers' actions run in place, tied or not.
  EXPECT_GT(fast.engine().keyed_in_place(),
            fast.engine().keyed_fired() * 9 / 10);
}

// --- Loops -----------------------------------------------------------------

const workload::WorkloadSpec& syscall_overhead() {
  for (const workload::WorkloadSpec& spec : workload::unixbench_suite()) {
    if (spec.name == "syscall_overhead") return spec;
  }
  throw std::logic_error("no syscall_overhead in the suite");
}

// A booted system running `copies` mini-UnixBench loops, by default
// syscall_overhead (40 µs iterations, the densest program), placed as the
// harness places them, its flight stream and metrics recorded, on one
// path. With a `hog`, a thread pinned to core 0 first computes that long
// and exits, and the loops are pinned there behind it.
struct LoopRun {
  LoopRun(CyclePath path, int copies,
          const workload::WorkloadSpec& spec = syscall_overhead(),
          Duration hog = Duration::zero())
      : path(path), flight(ProberRun::options()) {
    scenario::ScenarioConfig config;
    config.os.cycle_path = path;
    system = std::make_unique<scenario::Scenario>(config);
    if (hog > Duration::zero()) {
      auto thread = std::make_unique<os::FunctionThread>(
          "hog", [hog, done = false](os::OsContext&) mutable -> os::Action {
            if (std::exchange(done, true)) return os::ExitAction{};
            return os::ComputeAction{hog, nullptr};
          });
      thread->pin_to_core(0);
      system->os().add_thread(std::move(thread));
    }
    for (int i = 0; i < copies; ++i) {
      auto loop = std::make_unique<workload::WorkloadThread>(spec);
      if (hog > Duration::zero()) loop->pin_to_core(0);
      loops.push_back(static_cast<workload::WorkloadThread*>(
          system->os().add_thread(std::move(loop))));
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
    std::string counters = "iterations=" + std::to_string(iterations());
    for (const std::uint64_t n : seen) counters += " seen=" + std::to_string(n);
    return satin::fingerprint(*system, flight, metrics, counters);
  }
  // Whether `core`'s tick is armed as a keyed action.
  bool tick_keyed(hw::CoreId core) {
    return system->platform().timer().nonsecure_keyed(core);
  }

  CyclePath path;
  // Iteration counts that planted queue events saw.
  std::vector<std::uint64_t> seen;
  obs::FlightRecorder flight;
  obs::MetricsRegistry metrics;
  std::unique_ptr<scenario::Scenario> system;
  std::vector<workload::WorkloadThread*> loops;
  std::unique_ptr<core::Satin> satin;
  int hook = 0;
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

TEST(CycleFastForward, LoneLoopCompletesMostIterationsInPlace) {
  // 200 ms in one run: between two 4 ms ticks on its core the loop's
  // iterations complete in one burst, which the next tick bounds, so the
  // loop is dispatched about once per tick.
  LoopRun oracle(CyclePath::kEventPerRound, 1);
  LoopRun fast(CyclePath::kFastForward, 1);
  std::uint64_t ticks = 0;
  fast.system->os().add_tick_hook([&fast, &ticks](hw::CoreId core, Time) {
    if (core == fast.loops.front()->current_core()) ++ticks;
  });
  expect_identical_runs(oracle, fast, [](LoopRun& run, int) {
    run.system->run_for(Duration::from_ms(200));
    return false;
  });
  EXPECT_EQ(oracle.engine().keyed_in_place(), 0u);
  EXPECT_GT(fast.iterations(), 4'900u);
  EXPECT_GE(ticks, 49u);
  EXPECT_LE(fast.engine().keyed_fired() - fast.engine().keyed_in_place(),
            ticks + 2);
}

TEST(CycleFastForward, QueueEventsAtCompletionPicosecondsDispatchFirst) {
  // Plants queue events at exactly the picoseconds of eight consecutive
  // future completions, and one more a picosecond after the last. Each
  // planted key is older than its completion's, so it sees the iteration
  // before that completion, on both paths. On the fast path the previous
  // completion's burst stops at it. The loop was dispatched at t = 0 and
  // pays the 3 µs context-switch tax once, so iteration k ends at
  // k * 40 µs + 3 µs.
  const Duration cost = syscall_overhead().iteration_cost;
  const Duration tax = os::OsConfig{}.context_switch_cost;
  LoopRun oracle(CyclePath::kEventPerRound, 1);
  LoopRun fast(CyclePath::kFastForward, 1);
  expect_identical_runs(oracle, fast, [&](LoopRun& run, int stage) {
    if (stage == 1) {
      const std::int64_t next = (run.engine().now() - tax).ps() / cost.ps() + 1;
      const auto plant = [&run](Time at) {
        run.engine().schedule_at(at, [&run] {
          run.seen.push_back(run.iterations());
        });
      };
      for (std::int64_t k = next + 20; k < next + 28; ++k) {
        plant(Time::zero() + tax + cost * k);
      }
      plant(Time::zero() + tax + cost * (next + 27) + Duration::from_ps(1));
    }
    run.system->run_for(stage == 0 ? Duration::from_us(5'013)
                                   : Duration::from_us(900));
    return stage < 3;
  });
  // One iteration between planted events, and the last completion lands
  // between the last two: every planted event sits on a completion.
  ASSERT_EQ(oracle.seen.size(), 9u);
  for (std::size_t i = 1; i < oracle.seen.size(); ++i) {
    EXPECT_EQ(oracle.seen[i], oracle.seen[i - 1] + 1) << "planted event " << i;
  }
  EXPECT_GT(fast.engine().keyed_in_place(), 0u);
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

// --- Ticks in place ----------------------------------------------------------
//
// A lone loop core's tick only keeps books, so it is a keyed action that
// the loop's in-place runs complete with its iterations. Each case below
// takes that eligibility away, or ties a tick with an iteration, and the
// fast path must still agree with the oracle at every stage.

TEST(CycleFastForward, ATickHookInstalledMidWindowTakesTheTicksBack) {
  // KProber-I's injection point, installed mid-window on a core that
  // ticks in place. The hook records the loop's iteration count and plants
  // a queue event 1 µs later that records it again. Every tick is a queue
  // event while the hook is installed, and keyed again once it is gone.
  expect_identical_loop_runs(1, [](LoopRun& run, int stage) {
    const hw::CoreId core = run.loops[0]->current_core();
    const bool fast = run.path == CyclePath::kFastForward;
    if (stage == 1) {
      EXPECT_EQ(run.tick_keyed(core), fast);
      run.hook = run.system->os().add_tick_hook(
          [&run, core](hw::CoreId at, Time now) {
            if (at != core) return;
            run.seen.push_back(run.iterations());
            run.engine().schedule_at(now + Duration::from_us(1), [&run] {
              run.seen.push_back(run.iterations());
            });
          });
      EXPECT_FALSE(run.tick_keyed(core));
    } else if (stage == 9) {
      EXPECT_FALSE(run.tick_keyed(core));
      run.system->os().remove_tick_hook(run.hook);
    }
    run.system->run_for(stage == 0 ? Duration::from_us(5'013)
                                   : Duration::from_us(2'900));
    if (stage == 14) {
      EXPECT_EQ(run.tick_keyed(core), fast);
    }
    return stage < 14;
  });
}

TEST(CycleFastForward, ACfsThreadQueuedOnTheLoopCoreTakesItsTickBack) {
  // A CFS hog queued on the loop's core hands the keyed tick back to the
  // queue with the completion; the tick rejoins once the hog has exited.
  expect_identical_loop_runs(1, [](LoopRun& run, int stage) {
    const hw::CoreId core = run.loops[0]->current_core();
    const bool fast = run.path == CyclePath::kFastForward;
    if (stage == 1) {
      EXPECT_EQ(run.tick_keyed(core), fast);
      int computes = 0;
      auto hog = std::make_unique<os::FunctionThread>(
          "hog", [computes](os::OsContext&) mutable -> os::Action {
            if (++computes > 3) return os::ExitAction{};
            return os::ComputeAction{Duration::from_ms(1), nullptr};
          });
      hog->pin_to_core(core);
      run.system->os().add_thread(std::move(hog));
      EXPECT_FALSE(run.tick_keyed(core));
    }
    run.system->run_for(stage == 0 ? Duration::from_us(5'013)
                                   : Duration::from_us(900));
    if (stage == 2) {
      EXPECT_FALSE(run.tick_keyed(core));
    }
    if (stage == 40) {
      EXPECT_EQ(run.system->os().runnable_count(core), 1);
      EXPECT_EQ(run.tick_keyed(core), fast);
    }
    return stage < 40;
  });
}

TEST(CycleFastForward, ASecureStayOnTheLoopCoreTakesItsTickBack) {
  // SATIN pinned to the loop's core: each secure entry freezes the core
  // and hands its keyed tick back, and each of SATIN's secure timers is a
  // foreign key that ends the loop's in-place run.
  expect_identical_loop_runs(1, [](LoopRun& run, int stage) {
    if (stage == 0) {
      core::SatinConfig config;
      config.tp_s = 0.25;
      config.multi_core = false;
      config.fixed_core = run.loops[0]->current_core();
      run.satin = std::make_unique<core::Satin>(
          run.system->platform(), run.system->kernel(), run.system->tsp(),
          config);
      run.satin->start();
    }
    run.system->run_for(Duration::from_ms(30));
    if (stage == 50) {
      EXPECT_GE(run.satin->rounds(), 4u);
    }
    return stage < 50;
  });
}

TEST(CycleFastForward, ATickTiedWithAnIterationCompletionRunsInSeqOrder) {
  // A 3,994 µs hog on core 0 exits 3 µs short of the first tick, at 4 ms,
  // so the loop queued behind it, after its 3 µs context-switch tax,
  // ends an iteration on the tick's phase. With 40 µs iterations every
  // tick ties with one, and the tick, armed a tick earlier, holds the
  // older seq. With 8 ms iterations every other tick ties, and the
  // iteration, armed 8 ms earlier, holds it.
  for (const Duration cost : {Duration::from_us(40), Duration::from_ms(8)}) {
    const workload::WorkloadSpec spec{"tied", cost, Duration::from_ms(1)};
    const Duration hog = Duration::from_us(3'994);
    LoopRun oracle(CyclePath::kEventPerRound, 1, spec, hog);
    LoopRun fast(CyclePath::kFastForward, 1, spec, hog);
    expect_identical_runs(oracle, fast, [&](LoopRun& run, int stage) {
      // Later runs span a few iterations, so some complete in place.
      run.system->run_for(stage == 0 ? Duration::from_ms(12)
                                     : cost * 3 + Duration::from_us(300));
      if (stage == 0) {
        // The iteration ending at 12 ms, on the third tick, is counted.
        EXPECT_EQ(run.iterations(),
                  static_cast<std::uint64_t>(Duration::from_ms(8).ps() /
                                             cost.ps()));
      }
      return stage < 60;
    });
    EXPECT_GT(fast.engine().keyed_in_place(), 0u) << cost.ps();
  }
}

}  // namespace
}  // namespace satin
