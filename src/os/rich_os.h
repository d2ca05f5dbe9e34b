// The rich OS (normal-world Linux model).
//
// Owns the kernel image, the per-core scheduler (CFS + SCHED_FIFO), the
// periodic scheduling tick (HZ, NO_HZ_IDLE) and the timer-interrupt hook
// list that KProber-I abuses. Registers as a world listener on every core:
// a secure-world entry freezes that core's normal execution mid-action and
// the remainder resumes at exit — the availability side channel of §III-B.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "hw/platform.h"
#include "os/kernel_image.h"
#include "os/run_queue.h"
#include "os/thread.h"

namespace satin::os {

// How a core whose only thread declares a duty cycle or a loop advances
// (DESIGN.md §19). Bit-identical by contract; only the engine.*
// self-metrics differ.
enum class CyclePath {
  // Each wake-up and completion is a keyed engine action, run in place
  // without a queue event, a scheduler pass or an Action; the default.
  kFastForward,
  // Each is a queue event through the full scheduler; the oracle that
  // tests and bench_micro compare against.
  kEventPerRound,
};

struct OsConfig {
  // Scheduling-clock tick frequency; lsk-4.4 arm64 defconfig uses 250
  // (§III-C1: "100 <= HZ <= 1000 for most versions of the Linux kernel").
  int hz = 250;
  // CONFIG_NO_HZ_IDLE: the per-core tick stops while the core idles.
  bool nohz_idle = true;
  // Direct cost of a context switch on the rich OS.
  sim::Duration context_switch_cost = sim::Duration::from_us(3);
  // CFS timeslice before a waiting fair task may preempt at tick.
  sim::Duration cfs_quantum = sim::Duration::from_ms(4);
  // CFS wake-up preemption granularity (sysctl_sched_wakeup_granularity).
  double wakeup_granularity_s = 1.0e-3;
  // A waking sleeper's vruntime is clamped to at most this far below the
  // queue minimum (GENTLE_FAIR_SLEEPERS-style bound). Deliberately below
  // the wakeup granularity: a lone sleepy CFS prober does NOT preempt a
  // running same-priority thread and can wait out its slice — the
  // §III-B2 instability that motivates KProber-II's RT scheduling.
  double sleeper_bonus_cap_s = 0.5e-3;
  // Never part of result identity: set only by tests and bench_micro.
  CyclePath cycle_path = CyclePath::kFastForward;
};

class RichOs final : public hw::WorldListener,
                     private sim::KeyedActionOwner {
 public:
  RichOs(hw::Platform& platform, KernelImage image, OsConfig config = {});
  // Shared-image form: every Scenario references the one process-wide
  // immutable default image (os::default_kernel_image). The image never
  // mutates after construction, so sharing is safe — fault-injected
  // corruption lands on hw::Memory views, never here.
  RichOs(hw::Platform& platform, std::shared_ptr<const KernelImage> image,
         OsConfig config = {});
  ~RichOs() override;

  // Trusted boot: installs the kernel image into physical memory, starts
  // per-core ticks and dispatches initial threads.
  void boot();
  bool booted() const { return booted_; }

  hw::Platform& platform() { return platform_; }
  const KernelImage& kernel_image() const { return *image_; }
  const OsConfig& config() const { return config_; }

  // Registers a thread; the OS owns it. Returns a non-owning handle valid
  // for the OS lifetime.
  Thread* add_thread(std::unique_ptr<Thread> thread);

  // --- Timer-interrupt hook (KProber-I's injection point, §III-C1) -------
  // Hooks run in tick-handler context on the ticking core. Installing one
  // models rewriting the IRQ exception vector; it is the attacker's job to
  // also plant the memory trace (attack/kprober.cc does).
  using TickHook = std::function<void(hw::CoreId, sim::Time)>;
  int add_tick_hook(TickHook hook);
  void remove_tick_hook(int id);

  // --- Syscall table view ------------------------------------------------
  // Reads the current handler pointer for syscall `nr` straight from
  // physical memory — a hijacked entry is visible here.
  std::uint64_t syscall_handler_address(int nr) const;

  // --- Introspection-facing stats ----------------------------------------
  sim::Duration idle_time(hw::CoreId core) const;
  int runnable_count(hw::CoreId core) const;
  Thread* running_thread(hw::CoreId core) const;

  // WorldListener.
  void on_secure_entry(hw::CoreId core, sim::Time when) override;
  void on_secure_exit(hw::CoreId core, sim::Time when) override;

 private:
  friend struct RichOsTestPeer;  // tests build broken scheduler states

  struct CpuState {
    RunQueue queue;
    Thread* current = nullptr;
    Thread* last_thread = nullptr;  // context-switch detection
    sim::EventHandle completion;    // pending compute completion
    sim::Time action_end;           // when the pending compute finishes
    sim::Time slice_start;          // accounting anchor for `current`
    bool frozen = false;            // secure world holds this core
    bool tick_active = false;
    sim::Time idle_since;
    bool idle_accounting = false;
    sim::Duration idle_total;
    // Cycle fast path: the engine slot that carries this core's pending
    // wake-up (of `sleeper`) or completion (of `current`) while no queue
    // event stands for it.
    std::uint32_t keyed_slot = 0;
    enum class Keyed : std::uint8_t { kNone, kWake, kCompletion };
    Keyed keyed = Keyed::kNone;
    Thread* sleeper = nullptr;
  };

  CpuState& cpu(hw::CoreId core) { return cpus_.at(static_cast<std::size_t>(core)); }
  const CpuState& cpu(hw::CoreId core) const {
    return cpus_.at(static_cast<std::size_t>(core));
  }

  void enqueue_thread(Thread* thread);           // wake/requeue + placement
  hw::CoreId choose_core(const Thread& thread) const;
  void maybe_preempt_for(hw::CoreId core, Thread& wakee);
  void dispatch(hw::CoreId core);
  void begin_next_action(hw::CoreId core);
  // The start of a compute on either path (DESIGN.md §19).
  void open_compute(hw::CoreId core, Thread* thread, sim::Duration duration);
  // Queues the completion of the core's compute at its action_end.
  void schedule_completion(hw::CoreId core);
  void finish_compute(hw::CoreId core);
  void preempt_current(hw::CoreId core);
  void account_current(hw::CoreId core);
  void account_slices(CpuState& st, sim::Duration slice,
                      std::uint64_t slices);
  void mark_idle(hw::CoreId core, bool idle);
  void on_tick(hw::CoreId core);
  void program_tick(hw::CoreId core);
  // The keyed action a step leaves pending on the core's slot: its time,
  // or sim::Engine::kNoKey when the step left the fast path. The caller
  // arms it, or the engine's in-place run re-arms the slot (DESIGN.md §19).
  using Pending = sim::Time;
  Pending sleep_thread(hw::CoreId core, Thread* thread, sim::Time wake);
  // sleep_thread() off the fast path: the wake-up is a queue event.
  void sleep_on_queue(hw::CoreId core, Thread* thread, sim::Time wake);
  void wake_thread(Thread* thread);

  // Cycle fast path (DESIGN.md §19).
  bool fast_path_open(hw::CoreId core) const;
  bool can_fast_forward(hw::CoreId core, const Thread& thread) const;
  // True when the core's tick would only keep books: it runs a loop on
  // the fast path, with no tick hook, online and in the normal world. Its
  // tick is then keyed, and in-place runs complete it in place.
  bool tick_keeps_books(hw::CoreId core) const;
  void arm_keyed(hw::CoreId core, Pending when);
  // Hands the core's keyed action and keyed tick, if any, back to the
  // queue under their keys; every event-path entry that touches the core
  // calls this first.
  void hand_back(hw::CoreId core);
  void run_keyed_action(std::uint32_t core) override;
  // The core's keyed action: its wake-up, or the completion of `rounds`
  // back-to-back computes (more than one only in a loop's batch).
  Pending run_keyed_step(hw::CoreId core, std::uint64_t rounds);
  Pending fast_wake(hw::CoreId core);
  Pending fast_complete(hw::CoreId core, std::uint64_t rounds);
  // The tail of a dispatched keyed action: the engine's in-place run over
  // every core's keyed action and every keyed tick that keeps books.
  void run_in_place(hw::CoreId core);
  Pending begin_cycle_step(hw::CoreId core, Thread* thread);

  hw::Platform& platform_;
  std::shared_ptr<const KernelImage> image_;
  OsConfig config_;
  sim::Duration tick_period_;
  bool booted_ = false;
  std::vector<std::unique_ptr<Thread>> threads_;
  std::vector<CpuState> cpus_;
  std::vector<std::pair<int, TickHook>> tick_hooks_;
  int next_hook_id_ = 1;
  int next_tid_ = 1;
  std::uint64_t enqueue_counter_ = 0;
  // Per engine slot: the core of a RichOs slot or of a non-secure timer
  // slot (kTickSlot marks the latter), or kNoCore.
  static constexpr std::int32_t kNoCore = -1;
  static constexpr std::int32_t kTickSlot = 1 << 16;
  std::vector<std::int32_t> slot_core_;
  std::vector<std::uint32_t> joined_;  // run_in_place()'s participants
};

}  // namespace satin::os
