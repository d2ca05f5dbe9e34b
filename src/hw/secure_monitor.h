// EL3 Secure Monitor (ARM Trusted Firmware role).
//
// The monitor is the only component allowed to flip a core between worlds
// (§II-A: EL3 "only contains a Secure Monitor for controlling the context
// switch between the secure world and the normal world"). A world switch
// costs Ts_switch — saving the normal-world context and jumping to the
// secure payload — measured in §IV-B1 at 2.38e-6..3.60e-6 s; the return
// trip pays the same class of cost.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "hw/core.h"
#include "hw/fault_hooks.h"
#include "hw/timing_params.h"
#include "hw/types.h"
#include "sim/engine.h"
#include "sim/rng.h"

namespace satin::hw {

class SecureMonitor;

// Context handed to the secure payload (TSP) while it owns a core.
// The payload performs its work by scheduling engine events and must call
// complete() exactly once when done; the monitor then restores the
// normal-world context.
class SecureSession {
 public:
  CoreId core_id() const { return core_; }
  CoreType core_type() const { return type_; }
  // When the secure timer interrupt arrived (normal world frozen from here).
  sim::Time entry_time() const { return entry_; }
  // When the payload gained control (entry + Ts_switch).
  sim::Time handler_start() const { return start_; }

  void complete();
  bool completed() const { return completed_; }

 private:
  friend class SecureMonitor;
  SecureMonitor* monitor_ = nullptr;
  CoreId core_ = -1;
  CoreType type_ = CoreType::kLittleA53;
  sim::Time entry_;
  sim::Time start_;
  bool completed_ = false;
};

class SecureMonitor {
 public:
  // The payload owns the session pointer for the duration of the stay.
  using SecurePayload = std::function<void(std::shared_ptr<SecureSession>)>;

  SecureMonitor(sim::Engine& engine, sim::Rng& rng, const TimingParams& timing,
                std::vector<Core*> cores);

  // Installs the S-EL1 secure-timer interrupt handler (the TSP). With no
  // payload installed the monitor enters and immediately leaves — useful
  // for measuring the bare switch cost.
  void set_secure_timer_payload(SecurePayload payload) {
    payload_ = std::move(payload);
  }

  // GIC-facing entry point for secure-group interrupts. The secure timer
  // is the only one the monitor serves: any other has no handler, and
  // throws std::logic_error naming the IRQ and the core.
  void on_secure_irq(CoreId core, IrqId irq);

  std::uint64_t world_switches() const { return switches_; }

  // Fault-injection seam: consulted before entering the secure world.
  void set_fault_hooks(FaultHooks* hooks) { fault_hooks_ = hooks; }

  // Secure entries aborted by an installed FaultHooks.
  std::uint64_t failed_entries() const { return failed_entries_; }

  sim::Duration sample_switch() {
    ++switches_;
    return timing_.sample_switch(rng_);
  }

 private:
  friend class SecureSession;
  void finish_session(SecureSession& session);

  sim::Engine& engine_;
  sim::Rng& rng_;
  const TimingParams& timing_;
  std::vector<Core*> cores_;
  FaultHooks* fault_hooks_ = nullptr;
  std::uint64_t failed_entries_ = 0;
  // Successful secure-world entries: the ordinal the flight recorder's
  // kWorldEnter/kWorldExit records carry.
  std::uint64_t sessions_ = 0;
  std::uint64_t exits_ = 0;
  SecurePayload payload_;
  std::uint64_t switches_ = 0;
};

}  // namespace satin::hw
