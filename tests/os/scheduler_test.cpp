// The rich OS scheduler: CFS + RT FIFO, affinity, ticks, and — the part
// the paper's side channel rests on — freeze/resume across secure stays.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "scenario/scenario.h"

namespace satin::os {

struct RichOsTestPeer {
  static void begin_next_action(RichOs& os, hw::CoreId core) {
    os.begin_next_action(core);
  }
  static void preempt_current(RichOs& os, hw::CoreId core) {
    os.preempt_current(core);
  }
  // Forgets the core's running thread while its completion stays queued.
  static void drop_running_thread(RichOs& os, hw::CoreId core) {
    os.cpu(core).current = nullptr;
  }
  // Cancels the running thread's completion while it keeps the core.
  static void cancel_completion(RichOs& os, hw::CoreId core) {
    os.cpu(core).completion.cancel();
  }
};

namespace {

using hw::CoreId;
using sim::Duration;
using sim::Time;

// A thread that runs `compute` once and exits, recording completion time.
class OneShot : public Thread {
 public:
  OneShot(std::string name, Duration compute)
      : Thread(std::move(name)), compute_(compute) {}
  Action next_action(OsContext&) override {
    if (done_) return ExitAction{};
    done_ = true;
    return ComputeAction{compute_,
                         [this](OsContext& ctx) { completed_at_ = ctx.now; }};
  }
  Time completed_at() const { return completed_at_; }

 private:
  Duration compute_;
  bool done_ = false;
  Time completed_at_;
};

// An endless CPU hog.
class Hog : public Thread {
 public:
  using Thread::Thread;
  Action next_action(OsContext&) override {
    return ComputeAction{Duration::from_ms(1), nullptr};
  }
};

scenario::ScenarioConfig quiet_config() {
  scenario::ScenarioConfig config;
  config.boot = false;
  return config;
}

TEST(Scheduler, ComputeRunsAndExits) {
  scenario::Scenario s(quiet_config());
  auto* t = static_cast<OneShot*>(
      s.os().add_thread(std::make_unique<OneShot>("t", Duration::from_ms(10))));
  s.os().boot();
  s.run_for(Duration::from_ms(50));
  EXPECT_EQ(t->state(), ThreadState::kExited);
  // One context switch in front of the compute.
  EXPECT_EQ(t->completed_at(),
            Time::zero() + Duration::from_ms(10) +
                s.os().config().context_switch_cost);
  EXPECT_EQ(t->cpu_time(), Duration::from_ms(10) +
                               s.os().config().context_switch_cost);
}

TEST(Scheduler, SleepDelaysWork) {
  scenario::Scenario s(quiet_config());
  Time completed;
  auto* t = s.os().add_thread(std::make_unique<FunctionThread>(
      "sleeper", [&, phase = 0](OsContext&) mutable -> Action {
        switch (phase++) {
          case 0:
            return SleepForAction{Duration::from_ms(5)};
          case 1:
            return ComputeAction{Duration::from_ms(1),
                                 [&](OsContext& ctx) { completed = ctx.now; }};
          default:
            return ExitAction{};
        }
      }));
  s.os().boot();
  s.run_for(Duration::from_ms(50));
  EXPECT_EQ(t->state(), ThreadState::kExited);
  EXPECT_GE(completed, Time::zero() + Duration::from_ms(6));
  EXPECT_LT(completed, Time::zero() + Duration::from_ms(7));
}

TEST(Scheduler, SleepUntilHonorsAbsoluteTime) {
  scenario::Scenario s(quiet_config());
  Time woke;
  s.os().add_thread(std::make_unique<FunctionThread>(
      "until", [&, phase = 0](OsContext& ctx) mutable -> Action {
        switch (phase++) {
          case 0:
            return SleepUntilAction{Time::from_ms(20)};
          case 1:
            woke = ctx.now;
            return ExitAction{};
          default:
            return ExitAction{};
        }
      }));
  s.os().boot();
  s.run_for(Duration::from_ms(50));
  EXPECT_GE(woke, Time::from_ms(20));
  EXPECT_LT(woke, Time::from_ms(21));
}

TEST(Scheduler, PinnedThreadStaysOnItsCore) {
  scenario::Scenario s(quiet_config());
  auto hog = std::make_unique<Hog>("pinned");
  hog->pin_to_core(3);
  auto* t = s.os().add_thread(std::move(hog));
  s.os().boot();
  for (int i = 0; i < 20; ++i) {
    s.run_for(Duration::from_ms(10));
    EXPECT_EQ(t->current_core(), 3);
  }
}

TEST(Scheduler, UnpinnedThreadsSpreadAcrossCores) {
  scenario::Scenario s(quiet_config());
  std::vector<Thread*> hogs;
  for (int i = 0; i < 6; ++i) {
    hogs.push_back(
        s.os().add_thread(std::make_unique<Hog>("hog" + std::to_string(i))));
  }
  s.os().boot();
  s.run_for(Duration::from_ms(100));
  std::set<CoreId> used;
  for (Thread* t : hogs) used.insert(t->current_core());
  EXPECT_EQ(used.size(), 6u);
}

TEST(Scheduler, CfsSharesOneCoreFairly) {
  scenario::Scenario s(quiet_config());
  auto mk = [&](const std::string& name) {
    auto hog = std::make_unique<Hog>(name);
    hog->pin_to_core(0);
    return s.os().add_thread(std::move(hog));
  };
  Thread* a = mk("a");
  Thread* b = mk("b");
  s.os().boot();
  s.run_for(Duration::from_sec(2));
  const double fa = a->cpu_time().sec();
  const double fb = b->cpu_time().sec();
  EXPECT_NEAR(fa, fb, 0.10 * (fa + fb));
  EXPECT_GT(fa + fb, 1.9);  // the core was ~fully utilized
}

TEST(Scheduler, RtPreemptsCfsQuickly) {
  scenario::Scenario s(quiet_config());
  auto hog = std::make_unique<Hog>("hog");
  hog->pin_to_core(0);
  s.os().add_thread(std::move(hog));

  std::vector<double> latencies;
  auto rt = std::make_unique<FunctionThread>(
      "rt", [&, next_wake = Time::zero(), phase = 0](
                OsContext& ctx) mutable -> Action {
        if (phase == 0) {
          phase = 1;
          next_wake = ctx.now + Duration::from_ms(10);
          return SleepUntilAction{next_wake};
        }
        phase = 0;
        latencies.push_back((ctx.now - next_wake).sec());
        return ComputeAction{Duration::from_us(100), nullptr};
      });
  rt->pin_to_core(0);
  rt->set_policy(SchedPolicy::kRtFifo, 99);
  s.os().add_thread(std::move(rt));
  s.os().boot();
  s.run_for(Duration::from_sec(1));
  ASSERT_GT(latencies.size(), 50u);
  // A max-priority FIFO thread preempts CFS within the context-switch
  // cost, never waiting out a CFS quantum.
  for (double lat : latencies) EXPECT_LT(lat, 100e-6);
}

TEST(Scheduler, CfsWakeLatencySuffersUnderLoad) {
  // §III-B2: the user-level (CFS) prober's probing delay degrades when
  // competing same-priority threads share its core — the reason
  // KProber-II uses the RT scheduler.
  auto measure = [](bool with_load) {
    scenario::Scenario s;
    if (with_load) {
      for (int i = 0; i < 2; ++i) {
        auto hog = std::make_unique<Hog>("hog" + std::to_string(i));
        hog->pin_to_core(0);
        s.os().add_thread(std::move(hog));
      }
    }
    auto worst = std::make_shared<double>(0.0);
    auto probe = std::make_unique<FunctionThread>(
        "probe", [&, worst, next_wake = Time::zero(),
                  phase = 0](OsContext& ctx) mutable -> Action {
          if (phase == 0) {
            phase = 1;
            next_wake = ctx.now + Duration::from_ms(2);
            return SleepUntilAction{next_wake};
          }
          phase = 0;
          *worst = std::max(*worst, (ctx.now - next_wake).sec());
          return ComputeAction{Duration::from_us(10), nullptr};
        });
    probe->pin_to_core(0);
    s.os().add_thread(std::move(probe));
    s.run_for(Duration::from_sec(2));
    return *worst;
  };
  const double idle_worst = measure(false);
  const double loaded_worst = measure(true);
  // Alone: wakes within the context-switch cost. Loaded: waits out CFS
  // slices — milliseconds, the §III-B1 Tns_delay < 5.97e-3 regime.
  EXPECT_LT(idle_worst, 100e-6);
  EXPECT_GT(loaded_worst, 1e-3);
  EXPECT_LT(loaded_worst, 6e-3);
}

TEST(Scheduler, EqualPriorityRtRunsFifoWithoutPreemption) {
  scenario::Scenario s(quiet_config());
  Time first_done, second_started;
  auto first = std::make_unique<FunctionThread>(
      "first", [&, phase = 0](OsContext&) mutable -> Action {
        if (phase++ == 0) {
          return ComputeAction{Duration::from_ms(50),
                               [&](OsContext& c) { first_done = c.now; }};
        }
        return ExitAction{};
      });
  first->pin_to_core(1);
  first->set_policy(SchedPolicy::kRtFifo, 50);
  s.os().add_thread(std::move(first));

  auto second = std::make_unique<FunctionThread>(
      "second", [&, phase = 0](OsContext& ctx) mutable -> Action {
        if (phase++ == 0) {
          second_started = ctx.now;
          return ComputeAction{Duration::from_ms(1), nullptr};
        }
        return ExitAction{};
      });
  second->pin_to_core(1);
  second->set_policy(SchedPolicy::kRtFifo, 50);
  s.os().add_thread(std::move(second));
  s.os().boot();
  s.run_for(Duration::from_ms(200));
  EXPECT_GE(second_started, first_done);
}

TEST(Scheduler, SecureStayFreezesOnlyThatCore) {
  scenario::Scenario s;
  auto pinned = [&](CoreId c) {
    auto hog = std::make_unique<Hog>("hog" + std::to_string(c));
    hog->pin_to_core(c);
    return s.os().add_thread(std::move(hog));
  };
  Thread* on0 = pinned(0);
  Thread* on1 = pinned(1);
  s.tsp().install_timer_service([&](std::shared_ptr<hw::SecureSession> ss) {
    s.engine().schedule_after(Duration::from_ms(100),
                              [ss] { ss->complete(); });
  });
  s.run_for(Duration::from_ms(10));
  const Duration before0 = on0->cpu_time();
  s.platform().timer().program_secure(0, s.now());
  s.run_for(Duration::from_ms(100));
  const double ran0 = (on0->cpu_time() - before0).sec();
  // Core 0 was frozen ~the whole window; core 1 kept running.
  EXPECT_LT(ran0, 5e-3);
  EXPECT_GT(on1->cpu_time().sec(), 0.09);
}

TEST(Scheduler, FreezeConservesComputeWork) {
  scenario::Scenario s(quiet_config());
  auto* t = static_cast<OneShot*>(s.os().add_thread(
      std::make_unique<OneShot>("t", Duration::from_ms(20))));
  s.os().boot();
  s.tsp().install_timer_service([&](std::shared_ptr<hw::SecureSession> ss) {
    s.engine().schedule_after(Duration::from_ms(7), [ss] { ss->complete(); });
  });
  // Freeze the thread's core mid-compute.
  s.run_for(Duration::from_ms(5));
  const CoreId core = t->current_core();
  s.platform().timer().program_secure(core, s.now());
  s.run_for(Duration::from_ms(100));
  EXPECT_EQ(t->state(), ThreadState::kExited);
  // Work conserved: 20 ms of compute + 1 csw + ~7 ms stay + 2 switches.
  const double done = t->completed_at().sec();
  EXPECT_GT(done, 0.027);
  EXPECT_LT(done, 0.0272);
  EXPECT_NEAR(t->cpu_time().sec(),
              0.020 + s.os().config().context_switch_cost.sec(), 1e-9);
}

TEST(Scheduler, TickHooksRunAtHzOnBusyCores) {
  scenario::Scenario s(quiet_config());
  auto hog = std::make_unique<Hog>("hog");
  hog->pin_to_core(2);
  s.os().add_thread(std::move(hog));
  s.os().boot();
  std::map<CoreId, int> ticks;
  const int id = s.os().add_tick_hook(
      [&](CoreId core, Time) { ++ticks[core]; });
  s.run_for(Duration::from_sec(1));
  // HZ=250 on the busy core.
  EXPECT_NEAR(ticks[2], 250, 3);
  s.os().remove_tick_hook(id);
  const int after = ticks[2];
  s.run_for(Duration::from_sec(1));
  EXPECT_EQ(ticks[2], after);
}

TEST(Scheduler, NoHzIdleSilencesIdleCores) {
  scenario::Scenario s(quiet_config());
  auto hog = std::make_unique<Hog>("hog");
  hog->pin_to_core(0);
  s.os().add_thread(std::move(hog));
  s.os().boot();
  std::map<CoreId, int> ticks;
  s.os().add_tick_hook([&](CoreId core, Time) { ++ticks[core]; });
  s.run_for(Duration::from_sec(1));
  EXPECT_GT(ticks[0], 200);
  // Idle cores (1..5) stopped ticking (CONFIG_NO_HZ_IDLE).
  for (CoreId c = 1; c < 6; ++c) EXPECT_LE(ticks[c], 1) << "core " << c;
}

TEST(Scheduler, IdleTimeAccounting) {
  scenario::Scenario s(quiet_config());
  auto hog = std::make_unique<Hog>("hog");
  hog->pin_to_core(0);
  s.os().add_thread(std::move(hog));
  s.os().boot();
  s.run_for(Duration::from_sec(1));
  EXPECT_LT(s.os().idle_time(0).sec(), 0.01);
  EXPECT_GT(s.os().idle_time(1).sec(), 0.99);
}

TEST(Scheduler, RunnableCountAndRunningThread) {
  scenario::Scenario s(quiet_config());
  auto mk = [&](const std::string& n) {
    auto hog = std::make_unique<Hog>(n);
    hog->pin_to_core(0);
    return s.os().add_thread(std::move(hog));
  };
  mk("a");
  mk("b");
  mk("c");
  s.os().boot();
  s.run_for(Duration::from_ms(10));
  EXPECT_EQ(s.os().runnable_count(0), 3);
  EXPECT_NE(s.os().running_thread(0), nullptr);
  EXPECT_EQ(s.os().runnable_count(5), 0);
  EXPECT_EQ(s.os().running_thread(5), nullptr);
}

TEST(Scheduler, SyscallHandlerAddressSeesLiveMemory) {
  scenario::Scenario s;
  const auto& image = s.kernel();
  const std::uint64_t benign =
      s.os().syscall_handler_address(kGettidSyscallNr);
  std::uint64_t expected = 0;
  const auto entry = image.benign_syscall_entry(kGettidSyscallNr);
  for (int b = 7; b >= 0; --b) {
    expected = (expected << 8) | entry[static_cast<std::size_t>(b)];
  }
  EXPECT_EQ(benign, expected);
  // Hijack the entry: the OS-visible handler changes.
  std::vector<std::uint8_t> evil(8, 0xEE);
  s.platform().memory().write(s.now(), image.syscall_entry_offset(
                                           kGettidSyscallNr), evil);
  EXPECT_EQ(s.os().syscall_handler_address(kGettidSyscallNr),
            0xEEEEEEEEEEEEEEEEull);
}

TEST(Scheduler, BootTwiceThrows) {
  scenario::Scenario s;
  EXPECT_THROW(s.os().boot(), std::logic_error);
}

TEST(Scheduler, RejectsNonLinuxHz) {
  hw::Platform platform;
  OsConfig config;
  config.hz = 50;
  EXPECT_THROW(
      RichOs(platform, KernelImage(make_default_map()), config),
      std::invalid_argument);
}

TEST(Scheduler, ThreadWokenDuringFreezeRunsAfterExit) {
  scenario::Scenario s;
  s.tsp().install_timer_service([&](std::shared_ptr<hw::SecureSession> ss) {
    s.engine().schedule_after(Duration::from_ms(20), [ss] { ss->complete(); });
  });
  Time ran_at;
  auto t = std::make_unique<FunctionThread>(
      "late", [&, phase = 0](OsContext& ctx) mutable -> Action {
        if (phase++ == 0) return SleepForAction{Duration::from_ms(10)};
        ran_at = ctx.now;
        return ExitAction{};
      });
  t->pin_to_core(4);
  s.os().add_thread(std::move(t));
  s.run_for(Duration::from_ms(1));
  // Freeze core 4 for 20 ms starting at ~1 ms; the wake at ~11 ms lands
  // inside the stay and must not run (nor migrate — it is pinned).
  s.platform().timer().program_secure(4, s.now());
  s.run_for(Duration::from_ms(100));
  EXPECT_GT(ran_at.sec(), 0.021);
}

// --- Always-on invariants: each test builds the broken state directly ---

// Runs `op` and returns its std::logic_error message ("" if none).
template <typename Op>
std::string logic_error_of(Op op) {
  try {
    op();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

// A booted OS with a CPU hog pinned to `core`, run until the hog is
// mid-compute.
struct HogOnCore {
  explicit HogOnCore(CoreId core) : s(quiet_config()) {
    hog = s.os().add_thread(std::make_unique<Hog>("hog"));
    hog->pin_to_core(core);
    s.os().boot();
    s.run_for(Duration::from_us(500));
  }
  scenario::Scenario s;
  Thread* hog = nullptr;
};

TEST(RichOsInvariant, BeginNextActionOnIdleCoreThrows) {
  scenario::Scenario s(quiet_config());
  s.os().boot();
  s.run_for(Duration::from_ms(1));
  const std::string what = logic_error_of(
      [&] { RichOsTestPeer::begin_next_action(s.os(), 3); });
  EXPECT_NE(what.find("begin_next_action with no running thread"),
            std::string::npos) << what;
  EXPECT_NE(what.find("core 3"), std::string::npos) << what;
  EXPECT_NE(what.find("last thread none"), std::string::npos) << what;
  EXPECT_NE(what.find("t=" + s.engine().now().to_string()),
            std::string::npos) << what;
}

TEST(RichOsInvariant, CompletionWithNoRunningThreadThrows) {
  // The shape of the defect the fault-identity campaign hits: a compute
  // completion still queued for a core whose thread is gone.
  HogOnCore run(1);
  RichOsTestPeer::drop_running_thread(run.s.os(), 1);
  const std::string what =
      logic_error_of([&] { run.s.run_for(Duration::from_ms(2)); });
  EXPECT_NE(what.find("compute completion fired with no running thread"),
            std::string::npos) << what;
  EXPECT_NE(what.find("core 1"), std::string::npos) << what;
  EXPECT_NE(what.find("last thread 'hog'"), std::string::npos) << what;
}

TEST(RichOsInvariant, PreemptOnIdleCoreThrows) {
  HogOnCore run(0);
  const std::string what = logic_error_of(
      [&] { RichOsTestPeer::preempt_current(run.s.os(), 4); });
  EXPECT_NE(what.find("preempt_current with no running thread"),
            std::string::npos) << what;
  EXPECT_NE(what.find("core 4"), std::string::npos) << what;
  EXPECT_EQ(run.s.os().running_thread(0), run.hog);  // untouched
}

TEST(RichOsInvariant, SecureEntryFreezingThreadWithoutComputeThrows) {
  HogOnCore run(2);
  RichOsTestPeer::cancel_completion(run.s.os(), 2);
  const std::string what = logic_error_of([&] {
    run.s.os().on_secure_entry(2, run.s.engine().now());
  });
  EXPECT_NE(what.find("secure entry froze a thread with no pending compute"),
            std::string::npos) << what;
  EXPECT_NE(what.find("core 2"), std::string::npos) << what;
  EXPECT_NE(what.find("thread 'hog'"), std::string::npos) << what;
  EXPECT_NE(what.find("t=" + run.s.engine().now().to_string()),
            std::string::npos) << what;
}

}  // namespace
}  // namespace satin::os
