#include "sim/parallel.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <thread>

#include "obs/flight/recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/time.h"

namespace satin::sim {

TrialObsScope::TrialObsScope(obs::MetricsRegistry* metrics,
                             obs::TraceRecorder* tracer,
                             obs::FlightRecorder* flight)
    : prev_metrics_(obs::metrics()),
      prev_tracer_(obs::tracer()),
      prev_flight_(obs::flight()) {
  obs::install_metrics(metrics);
  obs::install_tracer(tracer);
  obs::install_flight(flight);
}

TrialObsScope::~TrialObsScope() {
  obs::install_metrics(prev_metrics_);
  obs::install_tracer(prev_tracer_);
  obs::install_flight(prev_flight_);
}

TrialRunner::TrialRunner(TrialRunnerOptions options)
    : options_(options), seeds_(options.root_seed) {}

int TrialRunner::hardware_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int TrialRunner::jobs_for(std::size_t trials) const {
  int jobs = options_.jobs > 0 ? options_.jobs : hardware_jobs();
  if (static_cast<std::size_t>(jobs) > trials) {
    jobs = static_cast<int>(trials);
  }
  return jobs < 1 ? 1 : jobs;
}

double TrialRunner::trials_per_second() const {
  return wall_seconds_ > 0.0
             ? static_cast<double>(trials_run_) / wall_seconds_
             : 0.0;
}

namespace {

// The calling thread's sinks decide whether trials record at all and how
// much each trial keeps: a per-trial recorder has its parent's trace
// capacity or flight ring. The per-trial instances exist so workers never
// contend on one registry and so the merged state is independent of
// completion order.
struct PerTrialSinks {
  obs::MetricsRegistry* parent_metrics = obs::metrics();
  obs::TraceRecorder* parent_tracer = obs::tracer();
  obs::FlightRecorder* parent_flight = obs::flight();
  std::vector<std::unique_ptr<obs::MetricsRegistry>> metrics;
  std::vector<std::unique_ptr<obs::TraceRecorder>> tracers;
  std::vector<std::unique_ptr<obs::FlightRecorder>> flights;

  explicit PerTrialSinks(std::size_t trials)
      : metrics(trials), tracers(trials), flights(trials) {
    for (std::size_t i = 0; i < trials; ++i) {
      if (parent_metrics != nullptr) {
        metrics[i] = std::make_unique<obs::MetricsRegistry>();
      }
      if (parent_tracer != nullptr) {
        tracers[i] =
            std::make_unique<obs::TraceRecorder>(parent_tracer->capacity());
      }
      if (parent_flight != nullptr) {
        obs::FlightRecorder::Options fopts;  // in-memory; no path, no spill
        fopts.ring = parent_flight->ring_capacity();
        flights[i] = std::make_unique<obs::FlightRecorder>(fopts);
      }
    }
  }

  // Merge in submission order, on the calling thread, after every trial
  // has settled.
  void merge(const TrialSeedSeq& seeds) {
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (metrics[i] != nullptr) parent_metrics->merge_from(*metrics[i]);
      if (tracers[i] != nullptr) parent_tracer->append_from(*tracers[i]);
      if (flights[i] != nullptr) {
        // The trial-begin marker is emitted here, by the parent, rather
        // than inside the trial: in ring mode it would be the trial's
        // OLDEST record and the first one overwritten, losing the
        // stream's trial boundaries exactly when the auditor needs them.
        parent_flight->record(obs::FlightKind::kTrialBegin, Time::zero(),
                              static_cast<std::uint64_t>(i),
                              static_cast<int>(i), seeds.seed_for(i));
        parent_flight->append_from(*flights[i]);
        // A ring-bounded trial replays only the tail it kept. The closing
        // record carries the trial's commit count and chain hash, which
        // fold every record it committed, so the merged chain still
        // covers each trial's full stream.
        parent_flight->record(obs::FlightKind::kTrialEnd,
                              flights[i]->last_commit_time(),
                              flights[i]->commits(), static_cast<int>(i),
                              flights[i]->chain_hash());
      }
    }
  }
};

// Fixed-size pool over `units` work items; a shared atomic cursor
// load-balances uneven items (duel lengths vary a lot). Claim order is
// racy, but nothing reads it: every output is keyed by the unit index.
void run_pool(int jobs, std::size_t units,
              const std::function<void(std::size_t)>& work) {
  if (jobs <= 1) {
    for (std::size_t i = 0; i < units; ++i) work(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(jobs));
  for (int w = 0; w < jobs; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= units) return;
        work(i);
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

}  // namespace

void TrialRunner::run(std::size_t trials,
                      const std::function<void(const TrialContext&)>& fn) {
  if (trials == 0) return;
  const auto wall_start = std::chrono::steady_clock::now();

  PerTrialSinks sinks(trials);
  std::vector<std::exception_ptr> errors(trials);

  const auto run_one = [&](std::size_t i) {
    const TrialContext ctx{i, seeds_.seed_for(i)};
    TrialObsScope scope(sinks.metrics[i].get(), sinks.tracers[i].get(),
                        sinks.flights[i].get());
    try {
      fn(ctx);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };

  run_pool(jobs_for(trials), trials, run_one);
  sinks.merge(seeds_);

  trials_run_ += trials;
  wall_seconds_ += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();

  for (std::size_t i = 0; i < trials; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
}

}  // namespace satin::sim
