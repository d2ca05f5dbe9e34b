// The assembled Juno-r1-like platform.
//
// Owns the simulation engine and every hardware block, wired the way the
// board is: generic timers raise interrupts into the GIC; secure-group
// interrupts route to the EL3 monitor; the GIC pends non-secure interrupts
// across secure-world occupancy.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hw/core.h"
#include "hw/generic_timer.h"
#include "hw/interrupt_controller.h"
#include "hw/memory.h"
#include "hw/secure_monitor.h"
#include "hw/timing_params.h"
#include "sim/engine.h"
#include "sim/rng.h"

namespace satin::hw {

struct PlatformConfig {
  // Juno r1: 4x Cortex-A53 + 2x Cortex-A57 (§IV-A).
  int num_little = 4;
  int num_big = 2;
  // Physical memory: must hold the rich OS kernel image (11,916,240 bytes
  // in the paper's build, §IV-C) with headroom.
  std::size_t memory_bytes = 16u * 1024u * 1024u;
  std::uint64_t seed = 0x5A71A57ull;
  // How stochastic hot paths draw: kBatched block kernels, the default on
  // every path, or kScalar per-draw, kept as the oracle that tests compare
  // against. Bit-identical by contract (tests/sim/rng_test.cpp); never part
  // of result identity.
  sim::DrawMode draw_mode = sim::DrawMode::kBatched;
  TimingParams timing;
};

class Platform {
 public:
  explicit Platform(const PlatformConfig& config = {});
  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  sim::Engine& engine() { return engine_; }
  sim::Rng& rng() { return rng_; }
  const TimingParams& timing() const { return config_.timing; }
  const PlatformConfig& config() const { return config_; }

  int num_cores() const { return static_cast<int>(cores_.size()); }
  Core& core(CoreId id) { return *cores_.at(static_cast<std::size_t>(id)); }
  const Core& core(CoreId id) const {
    return *cores_.at(static_cast<std::size_t>(id));
  }
  std::vector<Core*> core_ptrs();

  // Convenience: ids of all big (A57) / LITTLE (A53) cores.
  std::vector<CoreId> cores_of_type(CoreType type) const;

  Memory& memory() { return *memory_; }
  GenericTimer& timer() { return *timer_; }
  InterruptController& gic() { return *gic_; }
  SecureMonitor& monitor() { return *monitor_; }

  // Installs (or, with null, removes) one FaultHooks instance on every
  // block that has a seam: timer, GIC, monitor, memory. The hooks object
  // must outlive the platform or be uninstalled first.
  void install_fault_hooks(FaultHooks* hooks);
  FaultHooks* fault_hooks() const { return fault_hooks_; }

  sim::Time now() const { return engine_.now(); }

 private:
  PlatformConfig config_;
  sim::Engine engine_;
  sim::Rng rng_;
  FaultHooks* fault_hooks_ = nullptr;
  std::vector<std::unique_ptr<Core>> cores_;
  std::unique_ptr<Memory> memory_;
  std::unique_ptr<GenericTimer> timer_;
  std::unique_ptr<InterruptController> gic_;
  std::unique_ptr<SecureMonitor> monitor_;
};

}  // namespace satin::hw
