// Batched lockstep trial execution.
//
// A duel trial spends most of its cycles drawing calibrated jitter, which
// every platform draws through the batched pipeline (sim/rng.h) by
// default. BatchRunner groups a sweep's trials into shards of K: a worker
// owns a shard, and the shard's trials advance in lockstep
// — round-robin, one time quantum each — so K trials' worth of per-trial
// stream state stays resident and every refill amortizes across a long
// run of consumption (structure-of-arrays at the shard level: the state
// that varies per trial lives in arrays indexed by shard slot, walked in
// one engine pass per quantum).
//
// Identity is the design constraint, not an afterthought: each trial owns
// its engine and obs sinks, run_for slicing is inert in the event engine,
// and the submission-order merge is shared with TrialRunner::run() — so
// --batch=K output is byte-identical to the unsharded --batch=1 run for
// every K, which CI enforces.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>

#include "sim/parallel.h"
#include "sim/time.h"

namespace satin::sim {

class Engine;

// One trial a BatchRunner can interleave with its shard-mates. Calls are
// always made under the trial's own obs sinks; the trial must tolerate
// its simulated time advancing in quanta (pure event-engine trials do by
// construction).
class LockstepTrial {
 public:
  virtual ~LockstepTrial() = default;
  // True once the trial has nothing left to simulate. Checked before and
  // after every advance().
  virtual bool done() const = 0;
  // Advance simulated time by (at most) one quantum.
  virtual void advance(Duration quantum) = 0;
  // Called exactly once, after done() turns true: produce results (write
  // them wherever the factory wired them to go).
  virtual void finish() = 0;
  // Opt-in contract for the fused engine pass: return the trial's event
  // engine IFF advance(q) is exactly engine->run_until(now + q) — no
  // request_stop use, no per-advance side work. The fused shard loop then
  // drives the engine directly in merged-frontier bursts (observationally
  // identical: run_until slicing is inert, see sim/engine.h). Return
  // nullptr (the default) to always take the per-trial fallback path.
  virtual Engine* fused_engine() { return nullptr; }
};

struct BatchRunnerOptions {
  // Trials per lockstep shard. 1 degenerates to TrialRunner::run()'s
  // shape (still via the sharded code path).
  std::size_t batch = 1;
  // Lockstep slice of simulated time (matches run_duel's historical 1 s
  // stride so sliced and unsliced trials run the same event sequence).
  Duration quantum = Duration::from_sec(1);
  // Fused engine pass (--fused=on, the default): shard trials' engines
  // advance in merged event-frontier bursts. Off reproduces the PR-8/9
  // round-robin advance() loop exactly. Both share the process-wide
  // kernel image and pristine digest base like every other path
  // (DESIGN.md §20). Byte-identity to --batch=1 holds either way.
  bool fused = true;
  // Worker pool / seeds / per-trial sink capacities (TrialRunner
  // semantics; jobs is clamped to the shard count).
  TrialRunnerOptions runner;
};

// One shard's lockstep core, shared by TrialRunner::run_sharded and the
// campaign shard backend. Runs `count` trials to completion on the
// calling thread: construct via make_slot, advance in quantum rounds
// (fused lanes via merged-frontier engine bursts, stragglers via
// advance()), finish in slot order as each turns done. `with_sinks(slot,
// fn)` must run fn under the slot's obs sinks; `on_error(slot, error)` is
// invoked at most once per slot, after which the slot's trial has been
// destroyed and its shard-mates continue.
void run_lockstep_shard(
    std::size_t count, Duration quantum, bool fused,
    const std::function<std::unique_ptr<LockstepTrial>(std::size_t)>&
        make_slot,
    const std::function<void(std::size_t, const std::function<void()>&)>&
        with_sinks,
    const std::function<void(std::size_t, std::exception_ptr)>& on_error);

class BatchRunner {
 public:
  explicit BatchRunner(BatchRunnerOptions options = {});

  using MakeTrial =
      std::function<std::unique_ptr<LockstepTrial>(const TrialContext&)>;

  // Builds one trial per index in [0, trials) via `make` and runs them in
  // lockstep shards. Obs sinks, seeds, ordered merge, and first-error
  // rethrow all behave exactly like TrialRunner::run().
  void run(std::size_t trials, const MakeTrial& make);

  std::size_t batch() const { return options_.batch; }
  int jobs_for(std::size_t trials) const;
  double wall_seconds() const { return runner_.wall_seconds(); }
  std::size_t trials_run() const { return runner_.trials_run(); }

 private:
  BatchRunnerOptions options_;
  TrialRunner runner_;
};

}  // namespace satin::sim
