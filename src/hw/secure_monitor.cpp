#include "hw/secure_monitor.h"

#include <stdexcept>
#include <string>

#include "obs/flight/recorder.h"
#include "obs/metrics.h"

namespace satin::hw {

void SecureSession::complete() {
  if (completed_) {
    throw std::logic_error("SecureSession::complete called twice");
  }
  completed_ = true;
  monitor_->finish_session(*this);
}

SecureMonitor::SecureMonitor(sim::Engine& engine, sim::Rng& rng,
                             const TimingParams& timing,
                             std::vector<Core*> cores)
    : engine_(engine), rng_(rng), timing_(timing), cores_(std::move(cores)) {
  if (cores_.empty()) throw std::invalid_argument("SecureMonitor: no cores");
}

void SecureMonitor::on_secure_irq(CoreId core_id, IrqId irq) {
  if (irq != IrqId::kSecurePhysTimer) {
    throw std::logic_error("SecureMonitor: unhandled secure irq " +
                           std::to_string(static_cast<int>(irq)) +
                           " on core " + std::to_string(core_id));
  }
  Core& core = *cores_.at(static_cast<std::size_t>(core_id));
  if (core.in_secure_world()) {
    // The GIC pends secure IRQs while the core is already secure; reaching
    // here would mean re-entrancy.
    throw std::logic_error("secure irq delivered to core already in secure");
  }
  // Fault seam: the switch into the secure world can fail (aborted SMC /
  // stuck context save). The core stays in the normal world; whoever
  // programmed the wake must notice the round never happened.
  if (fault_hooks_ != nullptr && fault_hooks_->fail_secure_entry(core_id)) {
    ++failed_entries_;
    SATIN_METRIC_INC("hw.secure_entry_failures");
    return;
  }
  const sim::Time entry = engine_.now();
  SATIN_METRIC_INC("hw.secure_irqs");
  // Context save begins now: the normal world on this core is frozen from
  // this instant — exactly the availability loss the probers sense.
  core.enter_secure(entry);

  auto session = std::make_shared<SecureSession>();
  session->monitor_ = this;
  session->core_ = core_id;
  session->type_ = core.type();
  session->entry_ = entry;

  const sim::Duration switch_in = sample_switch();
  // One record carries the whole entry: the IRQ, the stay's start and the
  // switch-in span.
  SATIN_FLIGHT_RECORD(obs::FlightKind::kWorldEnter, entry, sessions_, core_id,
                      static_cast<std::uint64_t>(switch_in.ps()));
  ++sessions_;
  SATIN_METRIC_INC("hw.world_switches");
  SATIN_METRIC_OBSERVE("hw.switch_s", switch_in.sec());
  engine_.schedule_after(switch_in, [this, session] {
    session->start_ = engine_.now();
    if (payload_) {
      payload_(session);
    } else {
      session->complete();
    }
  });
}

void SecureMonitor::finish_session(SecureSession& session) {
  const CoreId core_id = session.core_id();
  const sim::Duration switch_out = sample_switch();
  SATIN_METRIC_INC("hw.world_switches");
  SATIN_METRIC_OBSERVE("hw.switch_s", switch_out.sec());
  engine_.schedule_after(switch_out, [this, core_id, switch_out] {
    Core& core = *cores_.at(static_cast<std::size_t>(core_id));
    core.exit_secure(engine_.now());
    // The exit ends both the stay and the switch-out span that led to it.
    SATIN_FLIGHT_RECORD(obs::FlightKind::kWorldExit, engine_.now(), exits_,
                        core_id, static_cast<std::uint64_t>(switch_out.ps()));
    ++exits_;
  });
}

}  // namespace satin::hw
