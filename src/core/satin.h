// SATIN: Secure Asynchronous Trustworthy INtrospection (§V, §VI).
//
// Orchestrates the two secure-world modules of Fig. 5 on top of the TSP:
//  * Integrity Checking Module — divide-and-conquer over the Kernel Area
//    Set: every wake-up scans one pseudo-randomly chosen area whose size
//    respects the Eq.-2 race bound, so the scan finishes before TZ-Evader
//    can hide.
//  * Self Activation Module — per-core secure timers programmed from the
//    Wake-Up Time Queue (random deviation, random core order, coordinated
//    through secure memory only).
//
// The same class, degenerately configured (one whole-kernel area, fixed
// period and/or fixed core), reproduces the PKM-style baseline that
// TZ-Evader defeats — see make_pkm_baseline_config().
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/area_set.h"
#include "core/integrity_checker.h"
#include "core/race_model.h"
#include "core/wakeup_queue.h"
#include "hw/platform.h"
#include "os/kernel_image.h"
#include "secure/tsp.h"

namespace satin::core {

// Self-healing knobs. Everything defaults OFF so a default-configured
// Satin is bit-identical to the pre-resilience implementation (no extra
// RNG draws, no extra events).
struct ResilienceConfig {
  // Missed-wake watchdog: a trusted engine-side tick (modeled as the
  // TSP's own bookkeeping timer, deliberately NOT routed through the
  // faultable GenericTimer) that re-arms any core whose expected wake is
  // overdue — recovering from misfired/drifted timers, lost secure IRQs
  // and aborted world switches.
  bool watchdog = false;
  double watchdog_period_tp = 0.5;  // tick every this fraction of tp
  double watchdog_margin_tp = 0.5;  // overdue = expected + this * tp
  // Rescan budget on a digest mismatch: mismatch-then-clean classifies
  // the alarm kTransient, persistent mismatch kConfirmed. 0 = classic
  // single-scan behavior.
  int max_scan_retries = 0;
  // Redistribute wake-queue rounds over surviving cores when a core goes
  // offline, resorbing it on return (multi-core only; detection rides on
  // the watchdog tick).
  bool adapt_offline = false;
};

struct SatinConfig {
  // Target period for covering the whole kernel once; tp = Tgoal / m.
  // §VI-B1's experiment runs with the 19-area map at ~152 s per cycle.
  double tgoal_s = 152.0;
  // Direct tp override (seconds); when set, tgoal_s is ignored.
  std::optional<double> tp_s;
  // Random deviation td ~ U(-tp, +tp) on each wake (ablation: off =>
  // strictly periodic, predictable to the evader).
  bool randomize_wake = true;
  // Pseudo-random area order (ablation: off => ascending order).
  bool randomize_area = true;
  // All cores take turns via the Wake-Up Time Queue; off pins every round
  // to `fixed_core` (the easier-to-probe configuration of §IV-B2).
  bool multi_core = true;
  hw::CoreId fixed_core = 0;
  secure::HashKind hash = secure::HashKind::kDjb2;
  secure::ScanStrategy strategy = secure::ScanStrategy::kDirectHash;
  // Areas to introspect; empty => partition the map by regions under the
  // worst-case race bound. Overrides are taken as-is (the PKM baseline
  // deliberately violates the bound with one whole-kernel area).
  std::vector<Area> areas_override;
  // One whole-kernel area regardless of the race bound (PKM baseline).
  bool whole_kernel_single_area = false;
  ResilienceConfig resilience;
  // Runs the introspector's digest cache in shadow mode: a
  // full re-hash every round, the oracle the cache is held to
  // (secure/digest_cache.h). Bit-identical by contract; like
  // os::OsConfig::cycle_path, not a campaign spec key and set only by
  // tests.
  bool shadow_digest_cache = false;
};

struct RoundRecord {
  std::uint64_t round = 0;
  int area = -1;
  hw::CoreId core = -1;
  sim::Time entry;        // secure timer interrupt (normal world frozen)
  sim::Time handler_start;
  sim::Time scan_end;
  double per_byte_s = 0.0;  // this pass's sampled scan speed
  bool alarm = false;
  bool transient = false;  // the alarm cleared on rescan
  int retries = 0;         // rescans performed this round
};

class Satin {
 public:
  Satin(hw::Platform& platform, const os::KernelImage& image,
        secure::TestSecurePayload& tsp, SatinConfig config = {});

  // Trusted boot: authorizes benign hashes, installs the secure-timer
  // service and programs the initial wake-up on every participating core.
  void start();
  // Stops the secure timers; an in-flight round finishes normally.
  void stop();
  bool running() const { return running_; }

  const SatinConfig& config() const { return config_; }
  sim::Duration tp() const { return tp_; }
  int area_count() const {
    return static_cast<int>(checker_.areas().size());
  }
  IntegrityChecker& checker() { return checker_; }
  const IntegrityChecker& checker() const { return checker_; }

  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t alarm_count() const {
    return static_cast<std::uint64_t>(checker_.alarms().size());
  }
  std::uint64_t watchdog_fires() const { return watchdog_fires_; }
  // Completed full passes over the kernel (every round consumes exactly
  // one area from the set). Guarded so a hypothetical empty area set can
  // never fault here — construction already rejects it.
  std::uint64_t full_cycles() const {
    const auto m = static_cast<std::uint64_t>(area_count());
    return m == 0 ? 0 : rounds_ / m;
  }
  const std::vector<RoundRecord>& round_records() const { return records_; }

  // Area containing a kernel offset (e.g. the hijacked handler).
  int area_of_offset(std::size_t offset) const {
    return area_containing(checker_.areas(), offset);
  }

  // §VI-B1: the period within which every byte is guaranteed scanned at
  // least once: m * tp + sum(size_i * Ts_1byte).
  sim::Duration guaranteed_scan_period(hw::CoreType assumed_core) const;

 private:
  void on_session(std::shared_ptr<hw::SecureSession> session);
  sim::Time next_wake_single(sim::Time now);
  void watchdog_tick();
  bool participates(hw::CoreId core) const {
    return config_.multi_core || core == config_.fixed_core;
  }

  hw::Platform& platform_;
  secure::TestSecurePayload& tsp_;
  SatinConfig config_;
  sim::Duration tp_;
  IntegrityChecker checker_;
  KernelAreaSet area_set_;
  WakeUpQueue wake_queue_;
  sim::Rng rng_;
  bool running_ = false;
  sim::Time last_single_wake_;
  std::uint64_t rounds_ = 0;
  std::vector<RoundRecord> records_;
  // Watchdog bookkeeping: the wake each participating core has been
  // armed for, and which cores the queue currently excludes.
  std::vector<sim::Time> expected_wake_;
  std::vector<char> absent_;
  std::uint64_t watchdog_fires_ = 0;
};

// The state-of-the-art baseline the paper attacks (§II, §IV-C): a
// Samsung-PKM-style periodic measurement of the whole kernel in one pass.
// `random_core` selects whether rounds rotate over random cores or stay on
// `fixed_core`; `random_time` adds the +/-period deviation.
SatinConfig make_pkm_baseline_config(double period_s, bool random_core,
                                     bool random_time,
                                     hw::CoreId fixed_core = 5);

}  // namespace satin::core
