#include "sim/batch.h"

#include <algorithm>
#include <vector>

#include "sim/engine.h"

namespace satin::sim {

BatchRunner::BatchRunner(BatchRunnerOptions options)
    : options_(options), runner_(options.runner) {
  if (options_.batch < 1) options_.batch = 1;
  if (options_.quantum <= Duration::zero()) {
    options_.quantum = Duration::from_sec(1);
  }
}

int BatchRunner::jobs_for(std::size_t trials) const {
  const std::size_t shards =
      trials == 0 ? 0 : (trials + options_.batch - 1) / options_.batch;
  return runner_.jobs_for(shards);
}

void BatchRunner::run(std::size_t trials, const MakeTrial& make) {
  runner_.run_sharded(trials, options_.batch, options_.quantum, make,
                      options_.fused);
}

void run_lockstep_shard(
    std::size_t count, Duration quantum, bool fused,
    const std::function<std::unique_ptr<LockstepTrial>(std::size_t)>&
        make_slot,
    const std::function<void(std::size_t, const std::function<void()>&)>&
        with_sinks,
    const std::function<void(std::size_t, std::exception_ptr)>& on_error) {
  // Shard-slot arrays — the per-trial state walked in lockstep.
  std::vector<std::unique_ptr<LockstepTrial>> live(count);
  std::vector<Engine*> engines(count, nullptr);
  std::size_t remaining = 0;

  for (std::size_t j = 0; j < count; ++j) {
    with_sinks(j, [&] {
      try {
        live[j] = make_slot(j);
        if (live[j] != nullptr) {
          ++remaining;
          if (fused) engines[j] = live[j]->fused_engine();
        }
      } catch (...) {
        live[j].reset();
        on_error(j, std::current_exception());
      }
    });
  }

  // A lane's burst window: long enough that peek/run_until bookkeeping
  // stays far off the profile, short enough that lanes genuinely
  // interleave through the merged event frontier within each quantum.
  Duration slice = Duration::from_ps(quantum.ps() / 4);
  if (slice <= Duration::zero()) slice = Duration::from_ps(1);

  std::vector<Time> target(count);
  std::vector<Time> frontier(count);
  std::vector<unsigned char> advancing(count, 0);

  const auto drop = [&](std::size_t j) {
    live[j].reset();
    engines[j] = nullptr;
    --remaining;
    on_error(j, std::current_exception());
  };

  while (remaining > 0) {
    // Phase 1 — fused lanes: each live not-yet-done lane owes one quantum
    // this round. Advance them through a merged schedule keyed by
    // (next event time, slot): always burst the lane whose engine holds
    // the globally earliest pending event, so the shard's K timer wheels
    // drain as one interleaved frontier. Identity-inert versus one
    // advance(quantum) per lane: run_until slicing and deadline-bounded
    // peeks do exactly the settles an unsharded run performs (sim/engine.h).
    std::size_t active = 0;
    for (std::size_t j = 0; j < count; ++j) {
      advancing[j] = 0;
      if (live[j] == nullptr || engines[j] == nullptr) continue;
      with_sinks(j, [&] {
        try {
          if (!live[j]->done()) {
            target[j] = engines[j]->now() + quantum;
            frontier[j] = engines[j]->next_event_time(target[j]);
            advancing[j] = 1;
            ++active;
          }
        } catch (...) {
          drop(j);
        }
      });
    }
    while (active > 0) {
      std::size_t pick = count;
      Time best = Time::max();
      for (std::size_t j = 0; j < count; ++j) {
        if (advancing[j] && (pick == count || frontier[j] < best)) {
          pick = j;
          best = frontier[j];
        }
      }
      with_sinks(pick, [&] {
        try {
          const Time stop = best >= target[pick]
                                ? target[pick]
                                : std::min(target[pick], best + slice);
          engines[pick]->run_until(stop);
          if (stop >= target[pick]) {
            advancing[pick] = 0;
            --active;
          } else {
            frontier[pick] = engines[pick]->next_event_time(target[pick]);
          }
        } catch (...) {
          advancing[pick] = 0;
          --active;
          drop(pick);
        }
      });
    }
    // Phase 2 — slot-order sweep: stragglers (no fused engine) take the
    // classic per-trial advance, and every lane that has turned done
    // finishes — the same done/advance/done shape as the unsharded loop.
    for (std::size_t j = 0; j < count; ++j) {
      if (live[j] == nullptr) continue;
      with_sinks(j, [&] {
        try {
          if (engines[j] == nullptr && !live[j]->done()) {
            live[j]->advance(quantum);
          }
          if (live[j]->done()) {
            live[j]->finish();
            live[j].reset();  // destructors may emit obs records
            engines[j] = nullptr;
            --remaining;
          }
        } catch (...) {
          drop(j);
        }
      });
    }
  }
}

}  // namespace satin::sim
