// Deterministic fault injector.
//
// Implements the hw::FaultHooks seams from a FaultPlan: every injection
// decision draws from a private RNG seeded by the plan (never from the
// platform's streams, so arming an injector does not perturb any existing
// experiment's randomness), and every decision happens at a deterministic
// point in the event order — either inside a seam consultation or inside
// an event the injector scheduled at arm() time (core-offline windows,
// spurious-interrupt trains). Same engine, same plan, same seed: same
// fault schedule, every run.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/plan.h"
#include "hw/fault_hooks.h"
#include "hw/platform.h"
#include "sim/rng.h"

namespace satin::fault {

class FaultInjector final : public hw::FaultHooks {
 public:
  FaultInjector(hw::Platform& platform, FaultPlan plan);
  // Uninstalls the hooks if still installed.
  ~FaultInjector() override;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Installs the hooks on the platform and schedules the windowed faults
  // (core-offline toggles, spurious IRQ trains). Call once, before the
  // part of the run the plan's windows cover.
  void arm();
  bool armed() const { return armed_; }
  // Removes the hooks; already-scheduled window events become no-ops.
  void disarm();

  const FaultPlan& plan() const { return plan_; }

  std::uint64_t injected(FaultKind kind) const {
    return injected_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t injected_total() const;

  // hw::FaultHooks
  hw::TimerFaultDecision on_program_secure(hw::CoreId core,
                                           sim::Time compare_value) override;
  bool drop_secure_irq(hw::CoreId core, hw::IrqId irq) override;
  bool fail_secure_entry(hw::CoreId core) override;
  std::vector<hw::BitFlip> scan_flips(sim::Time scan_start,
                                      std::size_t length) override;

 private:
  void note(FaultKind kind, int core);
  // True when `spec` is of `kind`, covers time `t`, targets `core` and its
  // per-opportunity probability draw triggers. Consumes one RNG draw iff
  // kind/window/core all match (keeps unrelated seams from perturbing the
  // stream order... draws happen only for genuine opportunities).
  bool triggers(const FaultSpec& spec, FaultKind kind, sim::Time t, int core);
  void schedule_offline_window(const FaultSpec& spec);
  void schedule_spurious_train(const FaultSpec& spec);

  hw::Platform& platform_;
  FaultPlan plan_;
  sim::Rng rng_;
  bool armed_ = false;
  std::array<std::uint64_t, kFaultKindCount> injected_{};
};

// Convenience for examples/benches: parses `spec` and arms an injector on
// `platform`. Empty spec returns null (no hooks installed, zero cost).
// Throws std::invalid_argument on a malformed spec.
std::unique_ptr<FaultInjector> install_from_spec(hw::Platform& platform,
                                                 const std::string& spec);

}  // namespace satin::fault
