// ARM Generic Timer model.
//
// §V-C / §VI-A1: every TrustZone-enabled core owns a *secure* physical
// timer (CNTPS_CVAL_EL1 / CNTPS_CTL_EL1) readable and writable only with
// secure-world privilege, all compared against the shared physical counter
// (CNTPCT_EL0). SATIN's self-activation programs these so the secure world
// wakes itself with no help from (and no signal to) the normal world.
// The rich OS drives its scheduling tick from the per-core non-secure
// physical timer. A non-secure expiry can be keyed (DESIGN.md §19): it then
// runs as an engine keyed action at the dispatch position its queue event
// would have taken.
#pragma once

#include <functional>
#include <vector>

#include "hw/fault_hooks.h"
#include "hw/types.h"
#include "sim/engine.h"
#include "sim/time.h"

namespace satin::hw {

class GenericTimer final : private sim::KeyedActionOwner {
 public:
  using RaiseFn = std::function<void(CoreId, IrqId)>;

  GenericTimer(sim::Engine& engine, int num_cores);
  ~GenericTimer();
  GenericTimer(const GenericTimer&) = delete;
  GenericTimer& operator=(const GenericTimer&) = delete;

  // CNTPCT_EL0: the counter shared by all cores. §III-B1's probers read a
  // "shared timer among all CPU cores" — this is it.
  sim::Time counter() const { return engine_.now(); }

  // Wire interrupt output (normally to the InterruptController).
  void set_raise_handler(RaiseFn fn) { raise_ = std::move(fn); }

  // Secure physical timer: fires IrqId::kSecurePhysTimer on `core` when the
  // counter reaches `compare_value`. Reprogramming replaces the pending
  // expiry (CNTPS_CVAL_EL1 write).
  void program_secure(CoreId core, sim::Time compare_value);
  // CNTPS_CTL_EL1.ENABLE = 0.
  void stop_secure(CoreId core);
  bool secure_enabled(CoreId core) const;
  sim::Time secure_compare_value(CoreId core) const;

  // Non-secure physical timer: same contract, fires kNonSecurePhysTimer.
  // A `keyed` expiry takes the seq its queue event would have and arms
  // nonsecure_slot(core) instead; its dispatch does what the event does.
  void program_nonsecure(CoreId core, sim::Time compare_value,
                         bool keyed = false);
  // The engine slot of `core`'s keyed expiry, and whether one is armed.
  std::uint32_t nonsecure_slot(CoreId core) const {
    return nonsecure_.at(static_cast<std::size_t>(core)).slot;
  }
  bool nonsecure_keyed(CoreId core) const {
    return nonsecure_.at(static_cast<std::size_t>(core)).keyed;
  }
  // Puts a keyed expiry back in the queue under its key; no-op otherwise.
  void hand_back_nonsecure(CoreId core);
  // A keyed expiry that joined the core's loop's in-place run
  // (sim::Engine::complete_in_place), which has made its dispatch commit:
  // the expiry's flight record and counter, without raising the IRQ, which
  // the caller delivers itself.
  void expire_nonsecure_in_place(CoreId core);

  int num_cores() const { return static_cast<int>(secure_.size()); }

  // Fault-injection seam: consulted on every secure expiry programming.
  // Null (the default) costs one pointer test and changes nothing.
  void set_fault_hooks(FaultHooks* hooks) { fault_hooks_ = hooks; }

  // Secure expiries swallowed or delayed by an installed FaultHooks.
  std::uint64_t faulted_programs() const { return faulted_programs_; }

 private:
  struct PerCoreTimer {
    sim::EventHandle event;
    sim::Time compare_value;
    bool enabled = false;
    bool keyed = false;      // the expiry is armed on `slot`
    std::uint32_t slot = 0;  // non-secure timers only
  };

  void program(std::vector<PerCoreTimer>& timers, CoreId core,
               sim::Time compare_value, IrqId irq, bool keyed);
  // Cancels the pending expiry, queued or keyed.
  void cancel(PerCoreTimer& t);
  // The expiry's own work; the queued event and a keyed dispatch then
  // raise the IRQ.
  void expire(PerCoreTimer& t, CoreId core, IrqId irq);
  sim::Callback expiry_event(PerCoreTimer& t, CoreId core, IrqId irq);
  void run_keyed_action(std::uint32_t core) override;

  sim::Engine& engine_;
  RaiseFn raise_;
  FaultHooks* fault_hooks_ = nullptr;
  std::uint64_t faulted_programs_ = 0;
  std::vector<PerCoreTimer> secure_;
  std::vector<PerCoreTimer> nonsecure_;
};

}  // namespace satin::hw
