#include "hw/generic_timer.h"

#include <stdexcept>

#include "obs/flight/recorder.h"
#include "obs/metrics.h"

namespace satin::hw {

// The export draws a secure-timer fire on the core's secure track.
static_assert(obs::kSecureTimerIrq ==
              static_cast<std::uint64_t>(IrqId::kSecurePhysTimer));

GenericTimer::GenericTimer(sim::Engine& engine, int num_cores)
    : engine_(engine),
      secure_(static_cast<std::size_t>(num_cores)),
      nonsecure_(static_cast<std::size_t>(num_cores)) {
  if (num_cores <= 0) throw std::invalid_argument("GenericTimer: no cores");
  for (int c = 0; c < num_cores; ++c) {
    nonsecure_[static_cast<std::size_t>(c)].slot =
        engine_.add_keyed_slot(this, static_cast<std::uint32_t>(c));
  }
}

GenericTimer::~GenericTimer() {
  for (PerCoreTimer& t : nonsecure_) {
    if (t.keyed) engine_.disarm(t.slot);
  }
}

void GenericTimer::cancel(PerCoreTimer& t) {
  t.event.cancel();
  if (t.keyed) {
    engine_.disarm(t.slot);
    t.keyed = false;
  }
}

void GenericTimer::program(std::vector<PerCoreTimer>& timers, CoreId core,
                           sim::Time compare_value, IrqId irq, bool keyed) {
  auto& t = timers.at(static_cast<std::size_t>(core));
  cancel(t);
  t.compare_value = compare_value;
  t.enabled = true;
  // Fault seam (secure timer only): the injector may swallow this expiry
  // or delay it. A dropped expiry leaves the timer armed but silent —
  // exactly the lost-CVAL-write symptom SATIN's watchdog must survive.
  sim::Duration drift = sim::Duration::zero();
  if (fault_hooks_ != nullptr && irq == IrqId::kSecurePhysTimer) {
    const TimerFaultDecision decision =
        fault_hooks_->on_program_secure(core, compare_value);
    if (decision.drop) {
      ++faulted_programs_;
      return;
    }
    if (!decision.drift.is_zero()) ++faulted_programs_;
    drift = decision.drift;
  }
  // The hardware condition is CNTPCT >= CVAL, so a compare value in the
  // past fires immediately.
  const sim::Time when =
      (compare_value + drift < engine_.now() ? engine_.now()
                                             : compare_value + drift);
  if (keyed) {
    engine_.arm(t.slot, {when, engine_.reserve_seq()});
    t.keyed = true;
  } else {
    t.event = engine_.schedule_at(when, expiry_event(t, core, irq));
  }
}

void GenericTimer::expire(PerCoreTimer& t, CoreId core, IrqId irq) {
  t.enabled = false;
  SATIN_FLIGHT_RECORD(obs::FlightKind::kTimerFire, engine_.now(), 0, core,
                      static_cast<std::uint64_t>(irq));
  if (irq == IrqId::kSecurePhysTimer) {
    SATIN_METRIC_INC("hw.secure_timer_fires");
  } else {
    SATIN_METRIC_INC("hw.nonsecure_timer_fires");
  }
}

sim::Callback GenericTimer::expiry_event(PerCoreTimer& t, CoreId core,
                                         IrqId irq) {
  return [this, core, irq, &t] {
    expire(t, core, irq);
    if (raise_) raise_(core, irq);
  };
}

void GenericTimer::run_keyed_action(std::uint32_t core) {
  PerCoreTimer& t = nonsecure_[core];
  t.keyed = false;
  expire(t, static_cast<CoreId>(core), IrqId::kNonSecurePhysTimer);
  if (raise_) raise_(static_cast<CoreId>(core), IrqId::kNonSecurePhysTimer);
}

void GenericTimer::expire_nonsecure_in_place(CoreId core) {
  PerCoreTimer& t = nonsecure_.at(static_cast<std::size_t>(core));
  t.keyed = false;
  expire(t, core, IrqId::kNonSecurePhysTimer);
}

void GenericTimer::hand_back_nonsecure(CoreId core) {
  PerCoreTimer& t = nonsecure_.at(static_cast<std::size_t>(core));
  if (!t.keyed) return;
  t.keyed = false;
  t.event = engine_.schedule_keyed(
      engine_.disarm(t.slot),
      expiry_event(t, core, IrqId::kNonSecurePhysTimer));
}

void GenericTimer::program_secure(CoreId core, sim::Time compare_value) {
  program(secure_, core, compare_value, IrqId::kSecurePhysTimer, false);
}

void GenericTimer::stop_secure(CoreId core) {
  auto& t = secure_.at(static_cast<std::size_t>(core));
  cancel(t);
  t.enabled = false;
}

bool GenericTimer::secure_enabled(CoreId core) const {
  return secure_.at(static_cast<std::size_t>(core)).enabled;
}

sim::Time GenericTimer::secure_compare_value(CoreId core) const {
  return secure_.at(static_cast<std::size_t>(core)).compare_value;
}

void GenericTimer::program_nonsecure(CoreId core, sim::Time compare_value,
                                     bool keyed) {
  program(nonsecure_, core, compare_value, IrqId::kNonSecurePhysTimer, keyed);
}

}  // namespace satin::hw
