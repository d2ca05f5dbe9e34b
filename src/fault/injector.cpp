#include "fault/injector.h"

#include <string>

#include "obs/flight/recorder.h"
#include "obs/metrics.h"

namespace satin::fault {

FaultInjector::FaultInjector(hw::Platform& platform, FaultPlan plan)
    : platform_(platform), plan_(std::move(plan)), rng_(plan_.seed) {}

FaultInjector::~FaultInjector() { disarm(); }

void FaultInjector::arm() {
  if (armed_) return;
  armed_ = true;
  platform_.install_fault_hooks(this);
  // Windowed faults are driven by injector-scheduled events, fixed now so
  // the schedule never depends on what the workload happens to do.
  for (const FaultSpec& spec : plan_.faults) {
    switch (spec.kind) {
      case FaultKind::kCoreOffline:
        schedule_offline_window(spec);
        break;
      case FaultKind::kIrqSpurious:
        schedule_spurious_train(spec);
        break;
      default:
        break;  // seam-driven kinds need no scheduling
    }
  }
}

void FaultInjector::disarm() {
  if (!armed_) return;
  armed_ = false;
  if (platform_.fault_hooks() == this) platform_.install_fault_hooks(nullptr);
}

std::uint64_t FaultInjector::injected_total() const {
  std::uint64_t total = 0;
  for (std::uint64_t n : injected_) total += n;
  return total;
}

void FaultInjector::note(FaultKind kind, int core) {
  ++injected_[static_cast<std::size_t>(kind)];
  SATIN_FLIGHT_RECORD(obs::FlightKind::kFault, platform_.engine().now(),
                      injected_total() - 1, core,
                      static_cast<std::uint64_t>(kind));
  SATIN_METRIC_INC("fault.injected");
  // The per-kind name is built at run time, so it cannot go through the
  // literal-only macros; injections are rare enough for a by-name lookup.
  if (obs::MetricsRegistry* metrics = obs::metrics()) {
    metrics->counter(std::string("fault.") + to_string(kind)).inc();
  }
}

bool FaultInjector::triggers(const FaultSpec& spec, FaultKind kind,
                             sim::Time t, int core) {
  if (spec.kind != kind || !spec.contains(t) || !spec.targets(core)) {
    return false;
  }
  // The draw happens only for genuine opportunities, so adding a spec of
  // one kind never perturbs the schedule of another.
  return rng_.bernoulli(spec.probability);
}

hw::TimerFaultDecision FaultInjector::on_program_secure(
    hw::CoreId core, sim::Time compare_value) {
  // Windows apply to when the expiry would *fire*, so "timer faults during
  // [a, b]" affects exactly the wakes landing in [a, b].
  for (const FaultSpec& spec : plan_.faults) {
    if (triggers(spec, FaultKind::kTimerMisfire, compare_value, core)) {
      note(FaultKind::kTimerMisfire, core);
      return hw::TimerFaultDecision{.drop = true,
                                    .drift = sim::Duration::zero()};
    }
    if (triggers(spec, FaultKind::kTimerDrift, compare_value, core)) {
      note(FaultKind::kTimerDrift, core);
      return hw::TimerFaultDecision{.drop = false, .drift = spec.drift};
    }
  }
  return hw::TimerFaultDecision{};
}

bool FaultInjector::drop_secure_irq(hw::CoreId core, hw::IrqId) {
  const sim::Time now = platform_.engine().now();
  for (const FaultSpec& spec : plan_.faults) {
    if (triggers(spec, FaultKind::kIrqLost, now, core)) {
      note(FaultKind::kIrqLost, core);
      return true;
    }
  }
  return false;
}

bool FaultInjector::fail_secure_entry(hw::CoreId core) {
  const sim::Time now = platform_.engine().now();
  for (const FaultSpec& spec : plan_.faults) {
    if (triggers(spec, FaultKind::kSmcFail, now, core)) {
      note(FaultKind::kSmcFail, core);
      return true;
    }
  }
  return false;
}

std::vector<hw::BitFlip> FaultInjector::scan_flips(sim::Time scan_start,
                                                   std::size_t length) {
  std::vector<hw::BitFlip> flips;
  if (length == 0) return flips;
  for (const FaultSpec& spec : plan_.faults) {
    // Bit flips hit whatever scan is in flight; core targeting does not
    // apply (the memory system has no notion of the scanning core).
    if (spec.kind != FaultKind::kBitFlip || !spec.contains(scan_start)) {
      continue;
    }
    if (!rng_.bernoulli(spec.probability)) continue;
    for (int i = 0; i < spec.flips; ++i) {
      const std::size_t pos = rng_.index(length);
      flips.push_back(
          {pos, static_cast<std::uint8_t>(1u << rng_.index(8))});
    }
    note(FaultKind::kBitFlip, kAnyCore);
    SATIN_METRIC_ADD("fault.bits_flipped", spec.flips);
  }
  return flips;
}

void FaultInjector::schedule_offline_window(const FaultSpec& spec) {
  // The whole window is one opportunity: decide it now, resolve an
  // unspecified core now, and schedule both edges.
  if (!rng_.bernoulli(spec.probability)) return;
  const int core = spec.core == kAnyCore
                       ? static_cast<int>(rng_.index(
                             static_cast<std::size_t>(platform_.num_cores())))
                       : spec.core;
  platform_.engine().schedule_at(spec.start, [this, core] {
    if (!armed_) return;
    note(FaultKind::kCoreOffline, core);
    platform_.core(core).set_online(false, platform_.engine().now());
  });
  platform_.engine().schedule_at(spec.end(), [this, core] {
    if (!armed_) return;
    platform_.core(core).set_online(true, platform_.engine().now());
  });
}

void FaultInjector::schedule_spurious_train(const FaultSpec& spec) {
  // One event per period tick across the window, each independently
  // deciding whether to fire and at which core.
  for (sim::Time t = spec.start; t < spec.end(); t += spec.period) {
    platform_.engine().schedule_at(t, [this, spec] {
      if (!armed_) return;
      if (!rng_.bernoulli(spec.probability)) return;
      const int core =
          spec.core == kAnyCore
              ? static_cast<int>(rng_.index(
                    static_cast<std::size_t>(platform_.num_cores())))
              : spec.core;
      note(FaultKind::kIrqSpurious, core);
      platform_.gic().raise(core, hw::IrqId::kSecurePhysTimer);
    });
  }
}

std::unique_ptr<FaultInjector> install_from_spec(hw::Platform& platform,
                                                 const std::string& spec) {
  FaultPlan plan = FaultPlan::parse(spec);
  if (plan.empty()) return nullptr;
  auto injector =
      std::make_unique<FaultInjector>(platform, std::move(plan));
  injector->arm();
  return injector;
}

}  // namespace satin::fault
