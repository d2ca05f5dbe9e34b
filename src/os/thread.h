// Rich-OS thread model.
//
// Threads are cooperative state machines driven by the scheduler: each
// time a thread may proceed, the scheduler asks for its next Action
// (compute for a duration, sleep, yield, exit). Compute actions are
// preemptible — the scheduler tracks the unfinished remainder across
// preemptions, CFS quantum expiry and secure-world freezes, which is
// exactly how a prober thread "loses" time when its core is taken.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <variant>

#include "hw/types.h"
#include "sim/time.h"

namespace satin::os {

class RichOs;

// Linux scheduling classes the paper leans on (§III-C2): SCHED_FIFO
// outranks CFS; higher rt_priority outranks lower.
enum class SchedPolicy { kCfs, kRtFifo };

enum class ThreadState { kNew, kRunnable, kRunning, kSleeping, kExited };

struct OsContext {
  RichOs& os;
  sim::Time now;
  hw::CoreId core;
};

// Consume CPU for `duration`; `on_complete` (optional) runs when the full
// duration has been executed (across preemptions).
struct ComputeAction {
  sim::Duration duration;
  std::function<void(OsContext&)> on_complete;
};
struct SleepForAction {
  sim::Duration duration;
};
struct SleepUntilAction {
  sim::Time until;
};
struct YieldAction {};
struct ExitAction {};

using Action = std::variant<ComputeAction, SleepForAction, SleepUntilAction,
                            YieldAction, ExitAction>;

// A fixed duty cycle a thread may declare (DESIGN.md §19): compute for
// `compute`, run the thread's round, sleep for `sleep`, and repeat. A loop
// declares no `sleep`: it computes back to back, one round per compute.
// While the thread reports itself parked, each step sleeps `park` instead
// and computes nothing.
struct DutyCycle {
  sim::Duration compute;
  std::optional<sim::Duration> sleep = std::nullopt;
  sim::Duration park = sim::Duration::zero();
};

class Thread {
 public:
  explicit Thread(std::string name) : name_(std::move(name)) {}
  virtual ~Thread() = default;
  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  // Called whenever the previous action finished; returns what to do next.
  virtual Action next_action(OsContext& ctx) = 0;

  const std::string& name() const { return name_; }
  int tid() const { return tid_; }
  ThreadState state() const { return state_; }
  SchedPolicy policy() const { return policy_; }
  int rt_priority() const { return rt_priority_; }

  // pthread_setschedparam equivalent (§IV-A1 uses SCHED_FIFO with
  // sched_get_priority_max for all KProber-II threads).
  void set_policy(SchedPolicy policy, int rt_priority = 0) {
    policy_ = policy;
    rt_priority_ = rt_priority;
  }

  // CPU-affinity pinning (§III-B1: "we fix the CPU affinity of each
  // thread" so a paused thread cannot migrate off a secure-held core).
  void pin_to_core(hw::CoreId core) { pinned_ = core; }
  void clear_pinning() { pinned_.reset(); }
  std::optional<hw::CoreId> pinned_core() const { return pinned_; }

  // Core the thread is currently running/queued on (-1 if none).
  hw::CoreId current_core() const { return current_core_; }

  // Total CPU time actually executed (drives Fig. 7 accounting).
  sim::Duration cpu_time() const { return cpu_time_; }
  // CFS virtual runtime, seconds.
  double vruntime_s() const { return vruntime_s_; }

 protected:
  // Declares that this thread's whole life is `cycle`; its next_action()
  // must then return cycle_action(), for a loop whenever cycle_diverted()
  // is false. Both that and RichOs's fast path derive every step from this
  // one declaration and the hooks below, so a core can run the cycle
  // without an engine event per step and still agree with the event path.
  void declare_cycle(DutyCycle cycle) {
    if (cycle.compute <= sim::Duration::zero()) {
      cycle.compute = sim::Duration::from_ps(1);
    }
    cycle_ = cycle;
  }
  Action cycle_action() {
    const CycleStep step = next_cycle_step();
    if (step.compute) {
      return ComputeAction{step.duration, cycle_round_callback()};
    }
    return SleepForAction{step.duration};
  }
  // Runs when `rounds` computes of the cycle have completed back to back,
  // the last ending at ctx.now. A duty cycle always gets 1; a loop gets
  // the count its burst completed (1 outside a burst, DESIGN.md §19). So a
  // loop's round is additive: it does what `rounds` single rounds would,
  // and must not read the clock per round, touch the scheduler or the
  // queue, change cycle_diverted() or cycle_parked(), or read its own
  // thread's cpu_time() or vruntime_s(). A loop step that must do more
  // diverts through cycle_diverted() instead.
  virtual void cycle_round(OsContext&, std::uint64_t /*rounds*/) {}
  virtual bool cycle_parked() const { return false; }
  // True when a loop's next step is not the cycle's; RichOs then asks
  // next_action() for it.
  virtual bool cycle_diverted() const { return false; }

 private:
  friend class RichOs;
  friend class RunQueue;

  struct CycleStep {
    bool compute;
    sim::Duration duration;
  };
  CycleStep next_cycle_step() {
    if (cycle_parked()) return {false, cycle_->park};
    if (!cycle_->sleep) return {true, cycle_->compute};
    const bool compute = cycle_computes_next_;
    cycle_computes_next_ = !compute;
    return compute ? CycleStep{true, cycle_->compute}
                   : CycleStep{false, *cycle_->sleep};
  }
  bool cycle_loops() const { return cycle_.has_value() && !cycle_->sleep; }
  std::function<void(OsContext&)> cycle_round_callback() {
    return [this](OsContext& ctx) { cycle_round(ctx, 1); };
  }

  std::string name_;
  int tid_ = -1;
  ThreadState state_ = ThreadState::kNew;
  SchedPolicy policy_ = SchedPolicy::kCfs;
  int rt_priority_ = 0;
  std::optional<hw::CoreId> pinned_;
  hw::CoreId current_core_ = -1;

  // Scheduler bookkeeping.
  double vruntime_s_ = 0.0;          // CFS virtual runtime, seconds
  sim::Duration remaining_compute_;  // unfinished part of current compute
  std::function<void(OsContext&)> pending_on_complete_;
  sim::Duration ran_in_slice_;       // time on CPU since last enqueue
  sim::Duration cpu_time_;
  std::uint64_t enqueue_seq_ = 0;    // FIFO order within RT priority

  std::optional<DutyCycle> cycle_;
  bool cycle_computes_next_ = true;
};

// Thread defined by a lambda; handy for tests and simple workloads.
class FunctionThread final : public Thread {
 public:
  using Fn = std::function<Action(OsContext&)>;
  FunctionThread(std::string name, Fn fn)
      : Thread(std::move(name)), fn_(std::move(fn)) {}

  Action next_action(OsContext& ctx) override { return fn_(ctx); }

 private:
  Fn fn_;
};

}  // namespace satin::os
