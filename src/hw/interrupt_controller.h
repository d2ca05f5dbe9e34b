// GIC-style interrupt controller with TrustZone interrupt grouping.
//
// §II-B: secure interrupts must reach the secure world even when the core
// runs the normal world; §V-B: SATIN blocks normal-world interrupts during
// introspection by running non-preemptively (SCR_EL3.IRQ = 0), so a
// non-secure interrupt arriving while a core is in the secure world is
// *pended* and delivered when the core returns to the normal world.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "hw/core.h"
#include "hw/fault_hooks.h"
#include "hw/types.h"
#include "sim/engine.h"

namespace satin::hw {

class InterruptController : public WorldListener {
 public:
  using Handler = std::function<void(CoreId, IrqId)>;

  InterruptController(sim::Engine& engine, std::vector<Core*> cores);
  ~InterruptController() override;

  // Group assignment; unconfigured IRQs default to non-secure.
  void configure_group(IrqId irq, IrqGroup group);
  IrqGroup group_of(IrqId irq) const;

  // The EL3 secure monitor takes secure-group interrupts.
  void set_secure_handler(Handler handler) {
    secure_handler_ = std::move(handler);
  }
  // The rich OS takes non-secure-group interrupts.
  void set_nonsecure_handler(Handler handler) {
    nonsecure_handler_ = std::move(handler);
  }

  // Signals IRQ `irq` on `core`. Delivery depends on group and world:
  //  - secure IRQ, core in normal world: forwarded to the monitor now;
  //  - secure IRQ, core in secure world: pended until the exit (a new
  //    introspection round cannot preempt the running one);
  //  - non-secure IRQ, core in normal world: delivered to the OS now;
  //  - non-secure IRQ, core in secure world: pended until the exit
  //    (non-preemptive secure mode).
  void raise(CoreId core, IrqId irq);

  bool is_pending(CoreId core, IrqId irq) const;
  std::size_t pending_count(CoreId core) const;

  // Fault-injection seam: consulted before routing secure-group IRQs.
  void set_fault_hooks(FaultHooks* hooks) { fault_hooks_ = hooks; }

  // WorldListener: drains pended interrupts at secure exit.
  void on_secure_entry(CoreId core, sim::Time when) override;
  void on_secure_exit(CoreId core, sim::Time when) override;

 private:
  void deliver(CoreId core, IrqId irq, IrqGroup group);

  sim::Engine& engine_;
  std::vector<Core*> cores_;
  FaultHooks* fault_hooks_ = nullptr;
  std::map<IrqId, IrqGroup> groups_;
  Handler secure_handler_;
  Handler nonsecure_handler_;
  // Level-style semantics: repeated raises of a pended IRQ collapse.
  std::vector<std::set<IrqId>> pending_;
};

}  // namespace satin::hw
