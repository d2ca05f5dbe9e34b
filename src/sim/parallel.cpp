#include "sim/parallel.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/flight/audit.h"
#include "obs/flight/recorder.h"
#include "obs/metrics.h"

namespace satin::sim {

TrialObsScope::TrialObsScope(obs::MetricsRegistry* metrics,
                             obs::FlightRecorder* flight)
    : prev_metrics_(obs::metrics()), prev_flight_(obs::flight()) {
  obs::install_metrics(metrics);
  obs::install_flight(flight);
}

TrialObsScope::~TrialObsScope() {
  obs::install_metrics(prev_metrics_);
  obs::install_flight(prev_flight_);
}

TrialRunner::TrialRunner(TrialRunnerOptions options)
    : options_(options), seeds_(options.root_seed) {}

int TrialRunner::hardware_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int TrialRunner::jobs_from_flag(std::optional<unsigned long long> flag,
                                int fallback) {
  if (!flag) return fallback;
  return *flag == 0 ? hardware_jobs() : static_cast<int>(*flag);
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

// The calling thread's sinks decide whether trials record at all and how.
// A per-trial flight recorder takes its parent's shape. Under a spilling
// parent each trial spills to its own file beside the parent's, opened
// only while the trial runs, and the merge streams each file in and
// removes it, so no trial's stream sits in memory. Under a ring parent
// each trial keeps a ring of the parent's size, and under an in-memory
// parent it keeps everything. The per-trial instances exist so workers
// never contend on one sink and so the merged state is independent of
// completion order.
struct PerTrialSinks {
  obs::MetricsRegistry* parent_metrics = obs::metrics();
  obs::FlightRecorder* parent_flight = obs::flight();
  bool spill = parent_flight != nullptr && parent_flight->spilling();
  std::vector<std::unique_ptr<obs::MetricsRegistry>> metrics;
  std::vector<std::unique_ptr<obs::FlightRecorder>> flights;  // unless spill
  std::vector<char> spilled;  // trial i's spill file was created

  explicit PerTrialSinks(std::size_t trials)
      : metrics(trials), flights(trials), spilled(trials, 0) {
    for (std::size_t i = 0; i < trials; ++i) {
      if (parent_metrics != nullptr) {
        metrics[i] = std::make_unique<obs::MetricsRegistry>();
      }
      if (parent_flight != nullptr && !spill) {
        obs::FlightRecorder::Options fopts;  // in-memory; no path, no spill
        fopts.ring = parent_flight->ring_capacity();
        flights[i] = std::make_unique<obs::FlightRecorder>(fopts);
      }
    }
  }

  std::string spill_path(std::size_t i) const {
    return parent_flight->path() + ".trial" + std::to_string(i);
  }

  // Runs trial i's body under its sinks, on whichever thread claimed it.
  void run(std::size_t i, const std::function<void()>& body,
           std::exception_ptr& error) {
    std::unique_ptr<obs::FlightRecorder> file;
    if (spill) {
      obs::FlightRecorder::Options fopts;
      fopts.path = spill_path(i);
      file = std::make_unique<obs::FlightRecorder>(fopts);
      // A recorder without its file would keep the whole stream in memory.
      if (file->failed()) {
        error = std::make_exception_ptr(
            std::runtime_error("flight: cannot open " + fopts.path));
        return;
      }
      spilled[i] = 1;
    }
    {
      TrialObsScope scope(metrics[i].get(),
                          spill ? file.get() : flights[i].get());
      try {
        body();
      } catch (...) {
        error = std::current_exception();
      }
    }
    if (file != nullptr && !file->close() && !error) {
      error = std::make_exception_ptr(
          std::runtime_error("flight: cannot write " + file->path()));
    }
  }

  // Merge in submission order, on the calling thread, after every trial
  // has settled.
  void merge(const TrialSeedSeq& seeds,
             std::vector<std::exception_ptr>& errors) {
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (metrics[i] != nullptr) parent_metrics->merge_from(*metrics[i]);
      if (parent_flight == nullptr) continue;
      if (!spill) {
        const std::vector<obs::FlightRecord> kept = flights[i]->snapshot();
        std::size_t k = 0;
        parent_flight->append_trial(
            i, seeds.seed_for(i), flights[i]->totals(),
            [&kept, &k](obs::FlightRecord& rec) {
              if (k == kept.size()) return false;
              rec = kept[k++];
              return true;
            });
        continue;
      }
      if (spilled[i] == 0) continue;  // its trial already failed the run
      const std::string path = spill_path(i);
      std::string error;
      if (!obs::append_trial_file(*parent_flight, i, seeds.seed_for(i), path,
                                  error) &&
          !errors[i]) {
        errors[i] = std::make_exception_ptr(
            std::runtime_error("flight: " + error));
      }
      std::remove(path.c_str());
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
    sinks.run(i, [&fn, &ctx] { fn(ctx); }, errors[i]);
  };

  run_pool(jobs_for(trials), trials, run_one);
  sinks.merge(seeds_, errors);

  trials_run_ += trials;
  wall_seconds_ += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();

  for (std::size_t i = 0; i < trials; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
}

}  // namespace satin::sim
