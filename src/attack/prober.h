// Core-availability probers: the side channel of §III-B and §III-C.
//
// A prober fixes a Time Reporter thread to each probed core; every round
// the reporter publishes the shared counter into the time buffer and the
// Time Comparer checks how stale every other core's report looks. A core
// held by the secure world stops reporting, its staleness grows past the
// configured threshold, and the prober flags it — without touching any
// secure-world state.
//
// Three deployment modes, matching the paper:
//  * kUserLevel  (§III-B1): plain CFS threads. Stealthy (no kernel
//    modification) but competing CFS load stretches the probing delay.
//  * kRtScheduler (KProber-II, §III-C2): SCHED_FIFO threads at maximum
//    priority; reliable sub-ms rounds, needs root.
//  * kTimerInterrupt (KProber-I, §III-C1): Reporter/Comparer injected into
//    the timer-interrupt path by rewriting the IRQ exception vector;
//    fires at tick frequency, but plants an 8-byte memory trace in kernel
//    text that introspection can find and that probing cannot remove.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "attack/time_buffer.h"
#include "os/rich_os.h"

namespace satin::attack {

enum class ProbeMode { kUserLevel, kRtScheduler, kTimerInterrupt };

const char* to_string(ProbeMode mode);

struct KProberConfig {
  ProbeMode mode = ProbeMode::kRtScheduler;
  // Flag a core once its report looks older than this. §VI-B1 sets
  // 1.8e-3 s — the largest benign staleness ever measured (Table II).
  double threshold_s = 1.8e-3;
  // Tsleep between rounds (§IV-A1): 2e-4 s; ignored by kTimerInterrupt,
  // which runs at tick (HZ) frequency.
  double sleep_s = 2.0e-4;
  // CPU cost of one reporter+comparer pass.
  double round_cost_s = 2.0e-6;
  // Cores to probe; empty = all cores.
  std::vector<hw::CoreId> probed_cores;
  // Optional extra comparer-only thread (used when probing a single
  // target core from elsewhere, §IV-A1).
  std::optional<hw::CoreId> observer_core;
  // Optional tap on every Comparer staleness sample (observed core,
  // seconds); used by the §VII-B on-victim threshold learner.
  std::function<void(hw::CoreId, double)> staleness_observer;
};

class KProber {
 public:
  using DetectFn = std::function<void(hw::CoreId core, sim::Time when,
                                      sim::Duration staleness)>;
  using ClearFn = std::function<void(hw::CoreId core, sim::Time when)>;

  KProber(os::RichOs& os, KProberConfig config);

  void set_on_detect(DetectFn fn) { on_detect_ = std::move(fn); }
  void set_on_clear(ClearFn fn) { on_clear_ = std::move(fn); }

  // Spawns the prober threads / installs the tick hook. For
  // kTimerInterrupt this also rewrites the IRQ exception vector slot in
  // kernel memory — the attack trace the defender can hash.
  void deploy();
  // Unhooks (mode I) and restores the vector bytes. Threads park
  // themselves once retracted.
  void retract();
  bool deployed() const { return deployed_; }

  const KProberConfig& config() const { return config_; }
  const std::vector<hw::CoreId>& probed_cores() const { return probed_; }

  // True while any probed core is flagged as secure-world-held.
  bool any_flagged() const;

  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t detection_count() const { return detections_; }
  // Largest staleness observed that did NOT cross the threshold; this is
  // how an attacker calibrates Tns_threshold on a victim device (§VII-B).
  double max_benign_staleness_s() const { return max_benign_s_; }

  // One Reporter+Comparer pass as seen from `self`; invoked by the prober
  // threads and the tick hook — not part of the public surface.
  void probe_round(hw::CoreId self, sim::Time now, bool report);

 private:
  os::RichOs& os_;
  KProberConfig config_;
  std::vector<hw::CoreId> probed_;
  std::unique_ptr<SharedTimeBuffer> buffer_;
  DetectFn on_detect_;
  ClearFn on_clear_;
  std::vector<std::uint8_t> flagged_;  // per core; bytes, not bits
  bool deployed_ = false;
  int tick_hook_id_ = 0;
  std::vector<std::uint8_t> saved_vector_bytes_;
  std::uint64_t rounds_ = 0;
  std::uint64_t detections_ = 0;
  double max_benign_s_ = 0.0;
};

// CFS busy-loops pinned to each core so NO_HZ_IDLE never silences the tick
// (§III-C1: "To avoid any core entering the idle mode, KProber-I keeps
// running a user-level multi-threads program on each core"). Returns the
// spawned thread handles.
std::vector<os::Thread*> spawn_keepalive_spinners(os::RichOs& os);

}  // namespace satin::attack
