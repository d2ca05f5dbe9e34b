// Deterministic parallel trial runner.
//
// Every evaluation in the paper is a Monte-Carlo sweep: N independent
// replicated simulations that differ only in their seed. Those trials
// share nothing — each builds its own Engine/Platform/Scenario — so they
// are embarrassingly parallel. TrialRunner fans them out over a fixed
// pool of --jobs=J std::threads while keeping the result BIT-IDENTICAL
// for any J, including J=1:
//
//  * seeds come from TrialSeedSeq (root seed + trial index only);
//  * every trial runs against its own thread-local MetricsRegistry /
//    FlightRecorder (created only when the calling thread had one
//    installed, and shaped like it: a spilling recorder's trials spill to
//    files beside it, a ring's keep rings of its size), merged back in
//    submission order after all trials settle;
//  * results land in submission-order slots, so aggregation code never
//    observes completion order;
//  * exceptions are captured per trial and the first (by submission
//    order) is rethrown once every trial has settled.
//
// Determinism is an acceptance gate, not a hope: the jobs=1 path goes
// through the exact same per-trial-sink + ordered-merge machinery, so a
// diff between jobs=1 and jobs=8 output is a bug by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <vector>

#include "sim/seed_seq.h"

namespace satin::obs {
class MetricsRegistry;
class FlightRecorder;
}  // namespace satin::obs

namespace satin::sim {

struct TrialContext {
  std::size_t index = 0;    // submission order, 0-based
  std::uint64_t seed = 0;   // TrialSeedSeq::seed_for(index)
};

// Installs per-trial obs sinks into this thread's slots for the duration
// of one trial; restores whatever the thread had on exit (pool workers
// hold null, the inline jobs=1 path holds the caller's session sinks).
// Shared by TrialRunner's thread workers and the campaign's forked worker
// processes — the one mechanism that keeps a trial's recording private no
// matter where the trial runs.
class TrialObsScope {
 public:
  TrialObsScope(obs::MetricsRegistry* metrics, obs::FlightRecorder* flight);
  // The three-argument form of the retired trace slot, for callers not yet
  // moved to two arguments.
  TrialObsScope(obs::MetricsRegistry* metrics, std::nullptr_t,
                obs::FlightRecorder* flight)
      : TrialObsScope(metrics, flight) {}
  ~TrialObsScope();
  TrialObsScope(const TrialObsScope&) = delete;
  TrialObsScope& operator=(const TrialObsScope&) = delete;

 private:
  obs::MetricsRegistry* prev_metrics_;
  obs::FlightRecorder* prev_flight_;
};

struct TrialRunnerOptions {
  // Worker threads; <= 0 means one worker per hardware thread. Clamped to
  // the trial count at run time.
  int jobs = 1;
  // Root of the per-trial seed derivation (see sim/seed_seq.h).
  std::uint64_t root_seed = 0x5A71A57ull;
};

class TrialRunner {
 public:
  explicit TrialRunner(TrialRunnerOptions options = {});

  // Workers actually used by run() for `trials` trials.
  int jobs_for(std::size_t trials) const;
  int jobs() const { return options_.jobs; }

  // Runs fn once per trial index in [0, trials). fn must not touch state
  // shared with other trials; everything it needs is derived from ctx.
  // Rethrows the first captured trial exception (submission order) after
  // all trials have settled and all obs sinks are merged.
  void run(std::size_t trials, const std::function<void(const TrialContext&)>& fn);

  // Convenience: one result per trial, in submission-order slots. R must
  // be default-constructible.
  template <typename Fn>
  auto run_collect(std::size_t trials, Fn&& fn)
      -> std::vector<std::decay_t<std::invoke_result_t<Fn&, const TrialContext&>>> {
    using R = std::decay_t<std::invoke_result_t<Fn&, const TrialContext&>>;
    std::vector<R> results(trials);
    run(trials, [&results, &fn](const TrialContext& ctx) {
      results[ctx.index] = fn(ctx);
    });
    return results;
  }

  // Host wall-clock spent inside run(), cumulative across calls, and the
  // trial throughput it implies. Host timing is intentionally NOT written
  // into any MetricsRegistry: metrics snapshots must stay bit-identical
  // across worker counts, and wall time never is.
  double wall_seconds() const { return wall_seconds_; }
  std::size_t trials_run() const { return trials_run_; }
  double trials_per_second() const;

  // One worker per hardware thread (>= 1).
  static int hardware_jobs();

  // Workers a program's --jobs=N flag asks for: N, one per hardware
  // thread for N = 0, and `fallback` when the flag is absent.
  static int jobs_from_flag(std::optional<unsigned long long> flag,
                            int fallback = 1);

 private:
  TrialRunnerOptions options_;
  TrialSeedSeq seeds_;
  double wall_seconds_ = 0.0;
  std::size_t trials_run_ = 0;
};

}  // namespace satin::sim
