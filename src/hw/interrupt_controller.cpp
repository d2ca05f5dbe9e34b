#include "hw/interrupt_controller.h"

#include <stdexcept>

#include "obs/flight/recorder.h"
#include "obs/metrics.h"

namespace satin::hw {

InterruptController::InterruptController(sim::Engine& engine,
                                         std::vector<Core*> cores)
    : engine_(engine), cores_(std::move(cores)),
      pending_(cores_.size()) {
  if (cores_.empty()) {
    throw std::invalid_argument("InterruptController: no cores");
  }
  for (Core* core : cores_) core->add_world_listener(this);
}

InterruptController::~InterruptController() {
  for (Core* core : cores_) core->remove_world_listener(this);
}

void InterruptController::configure_group(IrqId irq, IrqGroup group) {
  groups_[irq] = group;
}

IrqGroup InterruptController::group_of(IrqId irq) const {
  const auto it = groups_.find(irq);
  return it == groups_.end() ? IrqGroup::kNonSecure : it->second;
}

void InterruptController::raise(CoreId core, IrqId irq) {
  auto& pending = pending_.at(static_cast<std::size_t>(core));
  const IrqGroup group = group_of(irq);
  Core& target = *cores_.at(static_cast<std::size_t>(core));
  // A powered-off core has no CPU interface: the IRQ goes nowhere. (An
  // in-flight secure stay still drains its pended IRQs at exit — power-off
  // takes effect for newly raised interrupts.)
  if (!target.online()) {
    SATIN_FLIGHT_RECORD(obs::FlightKind::kCoreState, engine_.now(), 0, core,
                        obs::core_state_payload(
                            obs::FlightCoreState::kIrqDroppedOffline,
                            static_cast<std::uint64_t>(irq)));
    SATIN_METRIC_INC("hw.irqs_dropped_offline");
    return;
  }
  // Fault seam: a secure-group IRQ can be lost between the distributor and
  // the CPU interface.
  if (fault_hooks_ != nullptr && group == IrqGroup::kSecure &&
      fault_hooks_->drop_secure_irq(core, irq)) {
    SATIN_METRIC_INC("hw.irqs_lost");
    return;
  }
  const bool core_secure = target.in_secure_world();
  if (group == IrqGroup::kSecure) {
    if (core_secure) {
      pending.insert(irq);
    } else {
      deliver(core, irq, group);
    }
    return;
  }
  // Non-secure interrupt.
  if (core_secure) {
    // SCR_EL3.IRQ = 0: the secure payload outranks normal interrupts; the
    // IRQ stays pending at the GIC until the world switch back.
    pending.insert(irq);
  } else {
    deliver(core, irq, group);
  }
}

bool InterruptController::is_pending(CoreId core, IrqId irq) const {
  return pending_.at(static_cast<std::size_t>(core)).count(irq) > 0;
}

std::size_t InterruptController::pending_count(CoreId core) const {
  return pending_.at(static_cast<std::size_t>(core)).size();
}

void InterruptController::on_secure_entry(CoreId, sim::Time) {}

void InterruptController::on_secure_exit(CoreId core, sim::Time) {
  auto& pending = pending_.at(static_cast<std::size_t>(core));
  if (pending.empty()) return;
  // Drain to a local set first: delivering a pended secure timer IRQ can
  // re-enter the secure world and pend new interrupts.
  std::set<IrqId> drained;
  drained.swap(pending);
  for (IrqId irq : drained) deliver(core, irq, group_of(irq));
}

void InterruptController::deliver(CoreId core, IrqId irq, IrqGroup group) {
  if (group == IrqGroup::kSecure) {
    if (secure_handler_) secure_handler_(core, irq);
  } else {
    if (nonsecure_handler_) nonsecure_handler_(core, irq);
  }
}

}  // namespace satin::hw
