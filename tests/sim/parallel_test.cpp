// TrialRunner: the determinism contract is the whole point — jobs=1 and
// jobs=8 must produce byte-identical merged metrics, identically ordered
// flight streams and identical result slots, because benches print from
// exactly this machinery.
#include "sim/parallel.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "obs/flight/audit.h"
#include "obs/flight/recorder.h"
#include "obs/metrics.h"
#include "sim/engine.h"
#include "sim/rng.h"
#include "sim/seed_seq.h"
#include "sim/time.h"

namespace satin::sim {
namespace {

TEST(TrialSeedSeq, StatelessAndOrderIndependent) {
  TrialSeedSeq seq(1234);
  const std::uint64_t s7 = seq.seed_for(7);
  const std::uint64_t s0 = seq.seed_for(0);
  // Asking again, in any order, returns the same values.
  EXPECT_EQ(seq.seed_for(0), s0);
  EXPECT_EQ(seq.seed_for(7), s7);
  // A fresh sequence from the same root agrees.
  TrialSeedSeq again(1234);
  EXPECT_EQ(again.seed_for(0), s0);
  EXPECT_EQ(again.seed_for(7), s7);
  // Different roots and different indices decorrelate.
  TrialSeedSeq other(1235);
  EXPECT_NE(other.seed_for(0), s0);
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 100; ++i) seeds.insert(seq.seed_for(i));
  EXPECT_EQ(seeds.size(), 100u);
}

TEST(TrialRunner, ResultsLandInSubmissionOrderSlots) {
  TrialRunnerOptions options;
  options.jobs = 8;
  TrialRunner runner(options);
  const auto results = runner.run_collect(
      std::size_t{64}, [](const TrialContext& ctx) {
        return static_cast<int>(ctx.index) * 10;
      });
  ASSERT_EQ(results.size(), 64u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<int>(i) * 10);
  }
  EXPECT_EQ(runner.trials_run(), 64u);
  EXPECT_GE(runner.wall_seconds(), 0.0);
}

TEST(TrialRunner, SeedsMatchSeedSeqForAnyJobCount) {
  for (int jobs : {1, 3, 8}) {
    TrialRunnerOptions options;
    options.jobs = jobs;
    options.root_seed = 99;
    TrialRunner runner(options);
    const auto seeds = runner.run_collect(
        std::size_t{16},
        [](const TrialContext& ctx) { return ctx.seed; });
    TrialSeedSeq expected(99);
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      EXPECT_EQ(seeds[i], expected.seed_for(i)) << "jobs=" << jobs;
    }
  }
}

// The per-trial workload every determinism test runs: counters keyed by
// parity, one histogram, one gauge, a flight record. Values depend only
// on the trial index.
void emit_trial_obs(const TrialContext& ctx) {
  SATIN_METRIC_INC("trial.count");
  SATIN_METRIC_ADD("trial.index_sum", ctx.index);
  SATIN_METRIC_GAUGE_SET("trial.last_index", ctx.index);
  SATIN_METRIC_OBSERVE("trial.value", 1e-6 * static_cast<double>(ctx.index));
  SATIN_FLIGHT_RECORD(obs::FlightKind::kNote, Time::from_us(1), ctx.index,
                      static_cast<int>(ctx.index % 4), 0x7700 + ctx.index);
}

std::string run_and_snapshot_metrics(int jobs, std::size_t trials) {
  obs::MetricsRegistry registry;
  obs::install_metrics(&registry);
  TrialRunnerOptions options;
  options.jobs = jobs;
  TrialRunner runner(options);
  runner.run(trials, emit_trial_obs);
  obs::install_metrics(nullptr);
  return registry.to_json();
}

TEST(TrialRunner, MetricsSnapshotsAreByteIdenticalAcrossJobCounts) {
  const std::string serial = run_and_snapshot_metrics(1, 37);
  const std::string parallel = run_and_snapshot_metrics(8, 37);
  EXPECT_EQ(serial, parallel);
  // And the content is the deterministic fold of all trials.
  obs::MetricsRegistry registry;
  obs::install_metrics(&registry);
  TrialRunnerOptions options;
  options.jobs = 8;
  TrialRunner runner(options);
  runner.run(std::size_t{37}, emit_trial_obs);
  obs::install_metrics(nullptr);
  EXPECT_EQ(registry.counter("trial.count").value(), 37u);
  EXPECT_EQ(registry.counter("trial.index_sum").value(), 37u * 36u / 2u);
  EXPECT_DOUBLE_EQ(registry.gauge("trial.last_index").value(), 36.0);
  EXPECT_EQ(registry.histogram("trial.value").moments().count(), 37u);
}

// Each trial runs a real pooled engine — seed-dependent traffic up to
// 200 ms out with mid-run cancels and schedule-from-callback — and folds
// the engine's queue and memory-model counters into the merged metrics.
// Those counters are deterministic per trial, so the merged snapshot must
// be byte-identical at any job count, exactly like the PR-3 contract for
// bench output.
void pooled_engine_trial(const TrialContext& ctx) {
  Engine engine;
  Rng rng(ctx.seed);
  std::vector<EventHandle> handles;
  for (int i = 0; i < 40; ++i) {
    const auto us = static_cast<std::int64_t>(rng.index(200000)) + 1;
    handles.push_back(engine.schedule_after(
        Duration::from_us(us), [&engine, &rng, &handles] {
          if (rng.bernoulli(0.5) && !handles.empty()) {
            handles[rng.index(handles.size())].cancel();
          }
          if (rng.bernoulli(0.3)) {
            handles.push_back(engine.schedule_after(
                Duration::from_us(
                    static_cast<std::int64_t>(rng.index(1000)) + 1),
                [] {}));
          }
        }));
  }
  engine.run_all();
  SATIN_METRIC_ADD("engine_trial.fired", engine.events_fired());
  SATIN_METRIC_ADD("engine_trial.pool_reuses", engine.pool_reuses());
  SATIN_METRIC_ADD("engine_trial.queue_high_water", engine.queue_high_water());
  SATIN_METRIC_ADD("engine_trial.cancelled_popped", engine.cancelled_popped());
  SATIN_METRIC_ADD("engine_trial.cb_inline", engine.callbacks_inline());
}

std::string run_pooled_engine_trials(int jobs, std::size_t trials) {
  obs::MetricsRegistry registry;
  obs::install_metrics(&registry);
  TrialRunnerOptions options;
  options.jobs = jobs;
  options.root_seed = 4242;
  TrialRunner runner(options);
  runner.run(trials, pooled_engine_trial);
  obs::install_metrics(nullptr);
  return registry.to_json();
}

TEST(TrialRunner, PooledEngineCountersAreByteIdenticalAcrossJobCounts) {
  const std::string serial = run_pooled_engine_trials(1, 12);
  const std::string parallel = run_pooled_engine_trials(8, 12);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("engine_trial.pool_reuses"), std::string::npos);
}

// The merged stream of 20 trials recorded under a spilling parent at
// `path`: each trial's file beside it is streamed in and removed.
std::vector<obs::FlightRecord> spill_merge(int jobs, const std::string& path) {
  {
    obs::FlightRecorder::Options options;
    options.path = path;
    obs::FlightRecorder parent(options);
    obs::install_flight(&parent);
    TrialRunnerOptions runner_options;
    runner_options.jobs = jobs;
    TrialRunner runner(runner_options);
    runner.run(std::size_t{20}, emit_trial_obs);
    obs::install_flight(nullptr);
    EXPECT_TRUE(parent.close());
  }
  for (std::size_t i = 0; i < 20; ++i) {
    const std::string trial = path + ".trial" + std::to_string(i);
    std::FILE* left = std::fopen(trial.c_str(), "rb");
    EXPECT_EQ(left, nullptr) << trial << " left behind, jobs=" << jobs;
    if (left != nullptr) std::fclose(left);
  }
  obs::FlightReader reader;
  EXPECT_TRUE(reader.open(path)) << reader.error();
  std::vector<obs::FlightRecord> records;
  obs::FlightRecord rec;
  while (reader.next(rec)) records.push_back(rec);
  EXPECT_EQ(reader.totals().commits, records.size());
  std::remove(path.c_str());
  return records;
}

TEST(TrialRunner, FlightRecordsMergeInSubmissionOrder) {
  const std::string path = testing::TempDir() + "parallel_spill.flt";
  const std::vector<obs::FlightRecord> serial = spill_merge(1, path);
  const std::vector<obs::FlightRecord> parallel = spill_merge(8, path);
  EXPECT_EQ(serial, parallel);
  // Each trial: its begin marker, its one record, its closing record.
  constexpr std::size_t per_trial = 3;
  ASSERT_EQ(serial.size(), 20u * per_trial);
  TrialSeedSeq seeds(TrialRunnerOptions{}.root_seed);
  for (std::size_t i = 0; i < 20; ++i) {
    const obs::FlightRecord& begin = serial[per_trial * i];
    EXPECT_EQ(begin.kind,
              static_cast<std::uint16_t>(obs::FlightKind::kTrialBegin));
    EXPECT_EQ(begin.actor, static_cast<int>(i));
    EXPECT_EQ(begin.payload, seeds.seed_for(i));
    const obs::FlightRecord& note = serial[per_trial * i + 1];
    EXPECT_EQ(note.kind, static_cast<std::uint16_t>(obs::FlightKind::kNote));
    EXPECT_EQ(note.payload, 0x7700 + i);
    const obs::FlightRecord& end = serial[per_trial * i + 2];
    EXPECT_EQ(end.kind, static_cast<std::uint16_t>(obs::FlightKind::kTrialEnd));
    EXPECT_EQ(end.seq, 1u);
    EXPECT_EQ(end.t_ps, 1'000'000);
  }
}

TEST(TrialRunner, ATrialSpillThatCannotBeOpenedFailsTheRun) {
  const std::string path = testing::TempDir() + "parallel_unopenable.flt";
  // A directory where trial 3's spill file would go.
  const std::string blocked = path + ".trial3";
  ASSERT_EQ(::mkdir(blocked.c_str(), 0700), 0);
  obs::FlightRecorder::Options options;
  options.path = path;
  obs::FlightRecorder parent(options);
  obs::install_flight(&parent);
  TrialRunnerOptions runner_options;
  runner_options.jobs = 2;
  TrialRunner runner(runner_options);
  std::atomic<int> ran{0};
  try {
    runner.run(std::size_t{6}, [&ran](const TrialContext&) { ++ran; });
    ADD_FAILURE() << "an unopenable trial spill must fail the run";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(blocked), std::string::npos)
        << e.what();
  }
  obs::install_flight(nullptr);
  // Trial 3 never ran into an in-memory recorder; the others did.
  EXPECT_EQ(ran.load(), 5);
  EXPECT_TRUE(parent.close());
  std::remove(path.c_str());
  ::rmdir(blocked.c_str());
}

// Two trials of ten flight records each, merged into a 4-record ring on
// the calling thread. `first` is the payload of each trial's first
// record, which no 4-record window keeps.
struct RingMerge {
  std::uint64_t chain = 0;
  std::uint64_t commits = 0;
  std::uint64_t dropped = 0;
  std::vector<obs::FlightRecord> kept;
};

void record_ten(std::uint64_t first, int actor) {
  for (std::uint64_t k = 0; k < 10; ++k) {
    obs::flight()->record(obs::FlightKind::kDispatch,
                          Time::from_ps(static_cast<std::int64_t>(k + 1)), k,
                          actor, k == 0 ? first : k);
  }
}

RingMerge merge_ring_trials(std::uint64_t first) {
  obs::FlightRecorder::Options options;
  options.ring = 4;
  obs::FlightRecorder parent(options);
  obs::install_flight(&parent);
  TrialRunnerOptions runner_options;
  runner_options.jobs = 2;
  TrialRunner runner(runner_options);
  runner.run(std::size_t{2}, [first](const TrialContext& ctx) {
    record_ten(first, static_cast<int>(ctx.index));
  });
  obs::install_flight(nullptr);
  return {parent.chain_hash(), parent.commits(), parent.dropped(),
          parent.snapshot()};
}

TEST(TrialRunner, RingMergedChainCoversRecordsBeforeTheKeptTail) {
  const RingMerge a = merge_ring_trials(0xA);
  const RingMerge b = merge_ring_trials(0xB);
  // Each trial recorder took the calling thread's 4-record ring: it kept
  // four of its ten records and dropped six. The merge committed a begin
  // record, the four kept and a closing record per trial.
  EXPECT_EQ(a.commits, 12u);
  EXPECT_EQ(a.dropped, 2 * 6u + (12u - 4u));
  // The trials differ only before their kept tails, yet the merged chains
  // differ: each closing record carries its trial's full-stream chain.
  EXPECT_NE(a.chain, b.chain);

  obs::FlightRecorder alone;
  {
    TrialObsScope scope(nullptr, &alone);
    record_ten(0xA, 1);
  }
  ASSERT_EQ(a.kept.size(), 4u);
  const obs::FlightRecord& end = a.kept.back();
  EXPECT_EQ(end.kind, static_cast<std::uint16_t>(obs::FlightKind::kTrialEnd));
  EXPECT_EQ(end.actor, 1);
  EXPECT_EQ(end.t_ps, 10);
  EXPECT_EQ(end.seq, 10u);
  EXPECT_EQ(end.payload, alone.chain_hash());
}

TEST(TrialRunner, NoSinksInstalledMeansNoObsOverheadAndNoCrash) {
  obs::install_metrics(nullptr);
  obs::install_flight(nullptr);
  TrialRunnerOptions options;
  options.jobs = 4;
  TrialRunner runner(options);
  std::atomic<int> ran{0};
  runner.run(std::size_t{8}, [&ran](const TrialContext&) { ++ran; });
  EXPECT_EQ(ran.load(), 8);
}

TEST(TrialRunner, FirstExceptionBySubmissionOrderIsRethrown) {
  for (int jobs : {1, 8}) {
    TrialRunnerOptions options;
    options.jobs = jobs;
    TrialRunner runner(options);
    std::atomic<int> completed{0};
    try {
      runner.run(std::size_t{16}, [&completed](const TrialContext& ctx) {
        if (ctx.index == 11) throw std::runtime_error("trial 11 failed");
        if (ctx.index == 5) throw std::runtime_error("trial 5 failed");
        ++completed;
      });
      FAIL() << "expected a rethrown trial exception (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "trial 5 failed") << "jobs=" << jobs;
    }
    // Every other trial still ran to completion before the rethrow.
    EXPECT_EQ(completed.load(), 14) << "jobs=" << jobs;
  }
}

TEST(TrialRunner, FailedTrialsStillMergeTheirPartialObs) {
  obs::MetricsRegistry registry;
  obs::install_metrics(&registry);
  TrialRunnerOptions options;
  options.jobs = 8;
  TrialRunner runner(options);
  EXPECT_THROW(
      runner.run(std::size_t{10},
                 [](const TrialContext& ctx) {
                   SATIN_METRIC_INC("attempted");
                   if (ctx.index == 3) throw std::runtime_error("boom");
                   SATIN_METRIC_INC("finished");
                 }),
      std::runtime_error);
  obs::install_metrics(nullptr);
  EXPECT_EQ(registry.counter("attempted").value(), 10u);
  EXPECT_EQ(registry.counter("finished").value(), 9u);
}

TEST(TrialRunner, JobsForClampsToTrialCountAndHardware) {
  TrialRunnerOptions options;
  options.jobs = 8;
  TrialRunner runner(options);
  EXPECT_EQ(runner.jobs_for(3), 3);
  EXPECT_EQ(runner.jobs_for(100), 8);
  EXPECT_GE(TrialRunner::hardware_jobs(), 1);
  TrialRunnerOptions hw;
  hw.jobs = 0;  // auto
  TrialRunner auto_runner(hw);
  EXPECT_EQ(auto_runner.jobs_for(1000), TrialRunner::hardware_jobs());
}

TEST(TrialRunner, ZeroTrialsIsANoOp) {
  TrialRunner runner;
  bool ran = false;
  runner.run(std::size_t{0}, [&ran](const TrialContext&) { ran = true; });
  EXPECT_FALSE(ran);
  EXPECT_EQ(runner.trials_run(), 0u);
}

TEST(TrialRunner, ZeroTrialsWithSinksInstalledIsStillANoOp) {
  obs::MetricsRegistry registry;
  obs::install_metrics(&registry);
  TrialRunnerOptions options;
  options.jobs = 4;
  TrialRunner runner(options);
  runner.run(std::size_t{0},
             [](const TrialContext&) { SATIN_METRIC_INC("never"); });
  obs::install_metrics(nullptr);
  EXPECT_EQ(runner.trials_run(), 0u);
  EXPECT_EQ(registry.find_counter("never"), nullptr);
}

void emit_scoped_probe() { SATIN_METRIC_INC("scope.probe"); }

TEST(TrialObsScope, NextEmissionAfterASwapLandsInTheNewRegistry) {
  // The site's slot binds in `outer` first; the site's id must not pin
  // the site to that registry.
  obs::MetricsRegistry outer;
  obs::MetricsRegistry trial;
  obs::install_metrics(&outer);
  emit_scoped_probe();
  {
    TrialObsScope scope(&trial, nullptr);
    emit_scoped_probe();
    emit_scoped_probe();
    {
      TrialObsScope silenced(nullptr, nullptr);
      emit_scoped_probe();  // no registry: dropped
    }
    emit_scoped_probe();
  }
  emit_scoped_probe();
  obs::install_metrics(nullptr);
  EXPECT_EQ(outer.find_counter("scope.probe")->value(), 2u);
  EXPECT_EQ(trial.find_counter("scope.probe")->value(), 3u);
}

TEST(MetricSite, EightThreadsRacingAFreshLiteralShareOneMetric) {
  // Every thread's first emission of a literal no other test uses races
  // the site's one-time id initialization; each thread emits into its own
  // registry, so the only shared state is the site's id and the site
  // counter behind it (TSan covers both).
  constexpr int kThreads = 8;
  constexpr std::uint64_t kEmits = 1000;
  std::vector<obs::MetricsRegistry> registries(kThreads);
  std::atomic<int> waiting{kThreads};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      obs::install_metrics(&registries[static_cast<std::size_t>(i)]);
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      for (std::uint64_t n = 0; n < kEmits; ++n) {
        SATIN_METRIC_INC("race.fresh_literal_counter");
        SATIN_METRIC_DIGEST_OBSERVE("race.fresh_literal_digest", 1e-3);
      }
      obs::install_metrics(nullptr);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const obs::MetricsRegistry& registry : registries) {
    EXPECT_EQ(registry.find_counter("race.fresh_literal_counter")->value(),
              kEmits);
    EXPECT_EQ(registry.find_digest("race.fresh_literal_digest")->count(),
              kEmits);
  }
}

TEST(TrialRunner, MoreJobsThanTrialsRunsEachTrialExactlyOnce) {
  TrialRunnerOptions options;
  options.jobs = 16;
  TrialRunner runner(options);
  std::array<std::atomic<int>, 3> runs{};
  runner.run(std::size_t{3}, [&runs](const TrialContext& ctx) {
    ++runs[ctx.index];
  });
  EXPECT_EQ(runner.trials_run(), 3u);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "trial " << i;
  }
}

TEST(TrialRunner, EveryTrialFailingRethrowsTheLowestIndex) {
  for (int jobs : {1, 8}) {
    TrialRunnerOptions options;
    options.jobs = jobs;
    TrialRunner runner(options);
    try {
      runner.run(std::size_t{6}, [](const TrialContext& ctx) {
        throw std::runtime_error("trial " + std::to_string(ctx.index));
      });
      FAIL() << "expected a rethrow (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "trial 0") << "jobs=" << jobs;
    }
  }
}

TEST(TrialRunner, ExceptionInOneRunDoesNotPoisonTheNext) {
  TrialRunnerOptions options;
  options.jobs = 4;
  TrialRunner runner(options);
  EXPECT_THROW(runner.run(std::size_t{4},
                          [](const TrialContext& ctx) {
                            if (ctx.index == 2) {
                              throw std::runtime_error("boom");
                            }
                          }),
               std::runtime_error);
  // The runner is reusable after a failed run: fresh trials all succeed.
  std::atomic<int> ran{0};
  runner.run(std::size_t{4}, [&ran](const TrialContext&) { ++ran; });
  EXPECT_EQ(ran.load(), 4);
}

}  // namespace
}  // namespace satin::sim
