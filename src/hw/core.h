// A single CPU core with TrustZone world state.
//
// On ARMv8-A each core enters the secure world independently (§I, §II);
// the side channel the whole paper turns on is that a core held by the
// secure world is unavailable to the rich OS. Components that must react
// to world transitions (the rich-OS per-core scheduler, the GIC pending
// logic, probers' measurement hooks) register as WorldListeners.
#pragma once

#include <string>
#include <vector>

#include "hw/types.h"
#include "sim/time.h"

namespace satin::hw {

class WorldListener {
 public:
  virtual ~WorldListener() = default;
  // The core left the normal world at `when` (start of the context save).
  virtual void on_secure_entry(CoreId core, sim::Time when) = 0;
  // The core is back in the normal world at `when` (context restored).
  virtual void on_secure_exit(CoreId core, sim::Time when) = 0;
};

class Core {
 public:
  Core(CoreId id, CoreType type) : id_(id), type_(type) {}
  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  CoreId id() const { return id_; }
  CoreType type() const { return type_; }
  World world() const { return world_; }
  bool in_secure_world() const { return world_ == World::kSecure; }

  // Power state. An offline core receives no interrupts (the GIC drops
  // them at delivery); anything already in flight when the core went down
  // completes — the model powers off between events, never mid-event.
  // Fault injection drives this; cores boot online.
  bool online() const { return online_; }
  void set_online(bool online, sim::Time when);

  void add_world_listener(WorldListener* listener) {
    listeners_.push_back(listener);
  }
  void remove_world_listener(WorldListener* listener);

  // Cumulative simulated time this core has spent in the secure world;
  // feeds the Fig. 7 overhead accounting.
  sim::Duration secure_time_total() const { return secure_total_; }
  std::size_t secure_entries() const { return secure_entries_; }

  std::string name() const;

 private:
  friend class SecureMonitor;
  friend struct CoreTestPeer;  // tests build broken world states directly
  // Only the secure monitor (EL3) flips worlds, mirroring the hardware.
  void enter_secure(sim::Time when);
  void exit_secure(sim::Time when);

  CoreId id_;
  CoreType type_;
  World world_ = World::kNormal;
  bool online_ = true;
  sim::Time secure_entry_time_;
  sim::Duration secure_total_;
  std::size_t secure_entries_ = 0;
  bool notifying_exit_ = false;
  std::vector<WorldListener*> listeners_;
};

}  // namespace satin::hw
