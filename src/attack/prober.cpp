#include "attack/prober.h"

#include <algorithm>
#include <stdexcept>

#include "obs/flight/recorder.h"
#include "obs/metrics.h"

namespace satin::attack {

const char* to_string(ProbeMode mode) {
  switch (mode) {
    case ProbeMode::kUserLevel:
      return "user-level";
    case ProbeMode::kRtScheduler:
      return "KProber-II(rt)";
    case ProbeMode::kTimerInterrupt:
      return "KProber-I(timer)";
  }
  return "?";
}

namespace {

// One Reporter(+Comparer) thread pinned to a probed core; the observer
// variant compares without reporting. Its whole life is a duty cycle:
// compute round_cost_s, probe, sleep sleep_s. Retracted, it parks,
// waking every 100 ms to re-check.
class ProberThread final : public os::Thread {
 public:
  ProberThread(KProber& owner, hw::CoreId core, bool reports)
      : os::Thread(std::string("kprober/") + std::to_string(core)),
        owner_(owner),
        core_(core),
        reports_(reports) {
    declare_cycle({sim::Duration::from_sec_f(owner_.config().round_cost_s),
                   sim::Duration::from_sec_f(owner_.config().sleep_s),
                   sim::Duration::from_ms(100)});
  }

  os::Action next_action(os::OsContext&) override { return cycle_action(); }

 private:
  // A duty cycle's round is always one.
  void cycle_round(os::OsContext& ctx, std::uint64_t) override {
    owner_.probe_round(core_, ctx.now, reports_);
  }
  bool cycle_parked() const override { return !owner_.deployed(); }

  KProber& owner_;
  hw::CoreId core_;
  bool reports_;
};

}  // namespace

KProber::KProber(os::RichOs& os, KProberConfig config)
    : os_(os), config_(std::move(config)) {
  probed_ = config_.probed_cores;
  if (probed_.empty()) {
    for (int c = 0; c < os_.platform().num_cores(); ++c) probed_.push_back(c);
  }
  flagged_.assign(static_cast<std::size_t>(os_.platform().num_cores()), 0);
  // Aggregate comparer read rate, for the spike-rate conversion.
  const double rounds_per_s =
      config_.mode == ProbeMode::kTimerInterrupt
          ? static_cast<double>(os_.config().hz)
          : 1.0 / config_.sleep_s;
  const double comparers = static_cast<double>(probed_.size()) +
                           (config_.observer_core ? 1.0 : 0.0);
  const double reads_per_s = std::max(
      1.0, rounds_per_s * comparers *
               static_cast<double>(std::max<std::size_t>(probed_.size() - 1, 1)));
  buffer_ = std::make_unique<SharedTimeBuffer>(
      os_.platform().num_cores(), os_.platform().timing().cross_core,
      os_.platform().rng().fork("kprober-buffer"), reads_per_s,
      static_cast<int>(probed_.size()), os_.platform().config().draw_mode);
}

void KProber::deploy() {
  if (deployed_) throw std::logic_error("KProber::deploy: already deployed");
  deployed_ = true;

  if (config_.mode == ProbeMode::kTimerInterrupt) {
    // Redirect the IRQ exception vector: install the hook and plant the
    // 8-byte trace in kernel text (the part introspection can see).
    const std::size_t off = os_.kernel_image().irq_vector_offset();
    hw::Memory& mem = os_.platform().memory();
    saved_vector_bytes_.assign(8, 0);
    for (int b = 0; b < 8; ++b) {
      saved_vector_bytes_[static_cast<std::size_t>(b)] =
          mem.read(off + static_cast<std::size_t>(b));
    }
    std::vector<std::uint8_t> hijacked(8);
    for (int b = 0; b < 8; ++b) {
      hijacked[static_cast<std::size_t>(b)] =
          saved_vector_bytes_[static_cast<std::size_t>(b)] ^ 0xA5;
    }
    mem.write(os_.platform().engine().now(), off, hijacked);
    tick_hook_id_ = os_.add_tick_hook([this](hw::CoreId core, sim::Time now) {
      const bool probed_core =
          std::find(probed_.begin(), probed_.end(), core) != probed_.end();
      probe_round(core, now, probed_core);
    });
    return;
  }

  const bool rt = config_.mode == ProbeMode::kRtScheduler;
  auto spawn = [&](hw::CoreId core, bool reports) {
    auto thread = std::make_unique<ProberThread>(*this, core, reports);
    thread->pin_to_core(core);
    if (rt) {
      // sched_get_priority_max(SCHED_FIFO) for all KProber-II threads
      // (§IV-A1).
      thread->set_policy(os::SchedPolicy::kRtFifo, 99);
    }
    os_.add_thread(std::move(thread));
  };
  for (hw::CoreId core : probed_) spawn(core, /*reports=*/true);
  if (config_.observer_core) spawn(*config_.observer_core, /*reports=*/false);
}

void KProber::retract() {
  if (!deployed_) return;
  deployed_ = false;
  if (config_.mode == ProbeMode::kTimerInterrupt) {
    os_.remove_tick_hook(tick_hook_id_);
    tick_hook_id_ = 0;
    os_.platform().memory().write(os_.platform().engine().now(),
                                  os_.kernel_image().irq_vector_offset(),
                                  saved_vector_bytes_);
  }
}

bool KProber::any_flagged() const {
  return std::any_of(flagged_.begin(), flagged_.end(),
                     [](std::uint8_t f) { return f != 0; });
}

void KProber::probe_round(hw::CoreId self, sim::Time now, bool report) {
  if (!deployed_) return;
  ++rounds_;
  SATIN_METRIC_INC("attack.probe_rounds");
  // The shared buffer has one slot per core, indexed by core id.
  if (report) buffer_->report(self, now);
  for (hw::CoreId core : probed_) {
    if (core == self) continue;
    if (!buffer_->ever_reported(core)) continue;
    const sim::Duration staleness = buffer_->observed_staleness(core, now);
    SATIN_METRIC_OBSERVE("attack.staleness_s", staleness.sec());
    if (config_.staleness_observer) {
      config_.staleness_observer(core, staleness.sec());
    }
    std::uint8_t& flagged = flagged_[static_cast<std::size_t>(core)];
    if (staleness.sec() > config_.threshold_s) {
      if (flagged == 0) {
        flagged = 1;
        ++detections_;
        // Payload carries the staleness in ps — integral, so the record is
        // bit-stable where a rounded seconds double would not be.
        SATIN_FLIGHT_RECORD(obs::FlightKind::kProbe, now, detections_ - 1,
                            core, static_cast<std::uint64_t>(staleness.ps()));
        SATIN_METRIC_INC("attack.detections");
        SATIN_METRIC_DIGEST_OBSERVE("attack.detection_staleness_s",
                                    staleness.sec());
        if (on_detect_) on_detect_(core, now, staleness);
      }
    } else {
      if (flagged != 0) {
        flagged = 0;
        if (on_clear_) on_clear_(core, now);
      } else {
        max_benign_s_ = std::max(max_benign_s_, staleness.sec());
      }
    }
  }
}

std::vector<os::Thread*> spawn_keepalive_spinners(os::RichOs& os) {
  std::vector<os::Thread*> out;
  for (int c = 0; c < os.platform().num_cores(); ++c) {
    auto spinner = std::make_unique<os::FunctionThread>(
        "keepalive/" + std::to_string(c), [](os::OsContext&) -> os::Action {
          return os::ComputeAction{sim::Duration::from_us(500), nullptr};
        });
    spinner->pin_to_core(c);
    out.push_back(os.add_thread(std::move(spinner)));
  }
  return out;
}

}  // namespace satin::attack
