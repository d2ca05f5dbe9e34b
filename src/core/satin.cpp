#include "core/satin.h"

#include <stdexcept>

#include "obs/flight/recorder.h"
#include "obs/metrics.h"

namespace satin::core {

namespace {
std::vector<Area> resolve_areas(const hw::Platform& platform,
                                const os::KernelImage& image,
                                const SatinConfig& config) {
  std::vector<Area> areas;
  if (!config.areas_override.empty()) {
    areas = config.areas_override;
  } else if (config.whole_kernel_single_area) {
    areas = single_area(image.map());
  } else {
    const std::size_t cap =
        max_safe_area_bytes(worst_case_params(platform.timing()));
    areas = partition_by_regions(image.map(), cap);
  }
  if (areas.empty()) {
    throw std::invalid_argument(
        "Satin: empty kernel area set — the system map has no regions to "
        "introspect (and no areas_override was given)");
  }
  return areas;
}
}  // namespace

Satin::Satin(hw::Platform& platform, const os::KernelImage& image,
             secure::TestSecurePayload& tsp, SatinConfig config)
    : platform_(platform),
      tsp_(tsp),
      config_(std::move(config)),
      tp_(sim::Duration::zero()),
      checker_(platform, image, resolve_areas(platform, image, config_),
               config_.hash, config_.strategy),
      area_set_(static_cast<int>(checker_.areas().size()),
                platform.rng().fork("satin-area-set")),
      wake_queue_(platform.num_cores(), sim::Duration::from_sec(1),
                  platform.rng().fork("satin-wake-queue")),
      rng_(platform.rng().fork("satin")) {
  const double tp_s =
      config_.tp_s ? *config_.tp_s
                   : config_.tgoal_s / static_cast<double>(area_count());
  tp_ = sim::Duration::from_sec_f(tp_s);
  area_set_.set_randomized(config_.randomize_area);
  // Rebuild the wake queue with the real tp (member construction order
  // prevented computing tp before the queue existed).
  wake_queue_ = WakeUpQueue(platform.num_cores(), tp_,
                            platform_.rng().fork("satin-wake-queue"));
  wake_queue_.set_randomized(config_.randomize_wake);
  checker_.set_max_retries(config_.resilience.max_scan_retries);
  checker_.introspector().digest_cache().set_enabled(
      !config_.shadow_digest_cache);
}

void Satin::start() {
  if (running_) throw std::logic_error("Satin::start: already running");
  running_ = true;
  if (!checker_.authorized()) checker_.authorize_boot_state();
  tsp_.install_timer_service(
      [this](std::shared_ptr<hw::SecureSession> session) {
        on_session(std::move(session));
      });
  const sim::Time now = platform_.engine().now();
  expected_wake_.assign(static_cast<std::size_t>(platform_.num_cores()),
                        sim::Time::max());
  absent_.assign(static_cast<std::size_t>(platform_.num_cores()), 0);
  if (config_.multi_core) {
    const auto times = wake_queue_.boot_times(now);
    for (int c = 0; c < platform_.num_cores(); ++c) {
      platform_.timer().program_secure(c, times[static_cast<std::size_t>(c)]);
      expected_wake_[static_cast<std::size_t>(c)] =
          times[static_cast<std::size_t>(c)];
    }
  } else {
    const sim::Time next = next_wake_single(now);
    platform_.timer().program_secure(config_.fixed_core, next);
    expected_wake_[static_cast<std::size_t>(config_.fixed_core)] = next;
  }
  if (config_.resilience.watchdog) {
    platform_.engine().schedule_at(
        now + tp_ * config_.resilience.watchdog_period_tp,
        [this] { watchdog_tick(); });
  }
}

void Satin::stop() {
  if (!running_) return;
  running_ = false;
  for (int c = 0; c < platform_.num_cores(); ++c) {
    platform_.timer().stop_secure(c);
  }
}

sim::Time Satin::next_wake_single(sim::Time now) {
  if (!config_.randomize_wake) {
    // Strictly periodic mode re-arms on a drift-free grid (CVAL += period,
    // the way real periodic timers are programmed) — the predictable
    // pattern the §V-C randomization exists to destroy.
    last_single_wake_ =
        last_single_wake_.is_zero() ? now + tp_ : last_single_wake_ + tp_;
    return last_single_wake_;
  }
  return now + tp_ +
         rng_.uniform_duration(sim::Duration::zero() - tp_, tp_);
}

void Satin::on_session(std::shared_ptr<hw::SecureSession> session) {
  if (!running_) {
    session->complete();
    return;
  }
  const hw::CoreId core = session->core_id();
  const int area = area_set_.take_next();
  const std::uint64_t round = ++rounds_;
  SATIN_FLIGHT_RECORD(obs::FlightKind::kRound, platform_.engine().now(),
                      round - 1, core, static_cast<std::uint64_t>(area));
  SATIN_METRIC_INC("satin.rounds");
  checker_.check_area_async(
      core, area, [this, session = std::move(session), round,
                   area](const CheckOutcome& outcome) {
        RoundRecord record;
        record.round = round;
        record.area = area;
        record.core = outcome.core;
        record.entry = session->entry_time();
        record.handler_start = session->handler_start();
        record.scan_end = outcome.scan.scan_end;
        record.per_byte_s = outcome.scan.per_byte_s;
        record.alarm = !outcome.ok;
        record.transient = outcome.transient;
        record.retries = outcome.retries;
        if (record.alarm) {
          SATIN_METRIC_INC("satin.detections");
          // Detection lag: secure entry (normal world frozen) to the
          // digest verdict, including the world switch and any rescans.
          SATIN_METRIC_DIGEST_OBSERVE("satin.detection_lag_s",
                                      (record.scan_end - record.entry).sec());
        }
        records_.push_back(record);
        // Self Activation Module: arm this core's next wake before
        // leaving the secure world (Fig. 5 step 5).
        if (running_) {
          const sim::Time now = platform_.engine().now();
          // A spurious secure IRQ can run a round on a core outside the
          // rotation (wrong core in single-core mode, or one the queue
          // dropped); scan it, but never arm such a core's timer.
          const bool in_rotation =
              participates(outcome.core) &&
              (!config_.multi_core || wake_queue_.core_online(outcome.core));
          if (in_rotation) {
            const sim::Time next =
                config_.multi_core
                    ? wake_queue_.next_wake_for(outcome.core, now)
                    : next_wake_single(now);
            platform_.timer().program_secure(outcome.core, next);
            expected_wake_[static_cast<std::size_t>(outcome.core)] = next;
          }
        }
        session->complete();
      });
}

void Satin::watchdog_tick() {
  if (!running_) return;  // stop() ends the tick chain
  const sim::Time now = platform_.engine().now();
  const sim::Duration margin = tp_ * config_.resilience.watchdog_margin_tp;
  for (int c = 0; c < platform_.num_cores(); ++c) {
    if (!participates(c)) continue;
    const auto idx = static_cast<std::size_t>(c);
    hw::Core& core = platform_.core(c);
    if (!core.online()) {
      // Degradation: pull the core out of the rotation once so the queue
      // redistributes its rounds over the survivors.
      if (config_.resilience.adapt_offline && config_.multi_core &&
          !absent_[idx] && wake_queue_.online_count() > 1) {
        absent_[idx] = true;
        wake_queue_.set_core_online(c, false);
        SATIN_METRIC_INC("satin.cores_dropped");
        SATIN_FLIGHT_RECORD(obs::FlightKind::kCoreState, now, 0, c,
                            obs::core_state_payload(
                                obs::FlightCoreState::kSatinDropped));
      }
      continue;
    }
    if (absent_[idx]) {
      // The core is back: resorb it and arm its next round. A stale slot
      // from before the outage may land in the past — the timer fires it
      // immediately, which doubles as the catch-up round.
      absent_[idx] = false;
      wake_queue_.set_core_online(c, true);
      const sim::Time next = wake_queue_.next_wake_for(c, now);
      expected_wake_[idx] = next;
      platform_.timer().program_secure(c, next);
      SATIN_METRIC_INC("satin.cores_resorbed");
      SATIN_FLIGHT_RECORD(obs::FlightKind::kCoreState, now, 0, c,
                          obs::core_state_payload(
                              obs::FlightCoreState::kSatinResorbed));
      continue;
    }
    if (core.in_secure_world()) continue;  // a round is in flight
    if (now > expected_wake_[idx] + margin) {
      // Missed wake (misfired/drifted timer, lost IRQ, failed SMC):
      // re-arm at `now` for an immediate recovery round. If the fault
      // window is still active the re-arm may be swallowed again; the
      // next tick retries, so bounded windows always recover.
      ++watchdog_fires_;
      expected_wake_[idx] = now;
      platform_.timer().program_secure(c, now);
      SATIN_METRIC_INC("satin.watchdog_fires");
      SATIN_FLIGHT_RECORD(obs::FlightKind::kCoreState, now, 0, c,
                          obs::core_state_payload(
                              obs::FlightCoreState::kWatchdogRearm));
    }
  }
  platform_.engine().schedule_at(
      now + tp_ * config_.resilience.watchdog_period_tp,
      [this] { watchdog_tick(); });
}

sim::Duration Satin::guaranteed_scan_period(hw::CoreType assumed_core) const {
  const double per_byte =
      platform_.timing().hash_per_byte(assumed_core).avg_s;
  sim::Duration total = tp_ * static_cast<std::int64_t>(area_count());
  total += sim::Duration::from_sec_f(
      per_byte * static_cast<double>(total_area_bytes(checker_.areas())));
  return total;
}

SatinConfig make_pkm_baseline_config(double period_s, bool random_core,
                                     bool random_time, hw::CoreId fixed_core) {
  SatinConfig config;
  config.whole_kernel_single_area = true;
  config.tp_s = period_s;
  config.randomize_wake = random_time;
  config.randomize_area = false;
  config.multi_core = random_core;
  config.fixed_core = fixed_core;
  return config;
}

}  // namespace satin::core
