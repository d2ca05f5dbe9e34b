// BatchRunner / run_sharded: the lockstep engine must be an identity
// transform over TrialRunner::run() — same submission-order result slots,
// same merged obs, same first-error rethrow — for every shard size. The
// duel-level tests at the bottom close the loop end-to-end: a real
// run_duel_sweep at --batch=K on the default batched draws must reproduce
// a --batch=1 reference drawn through the scalar oracle field for field.
#include "sim/batch.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/injector.h"
#include "obs/flight/audit.h"
#include "obs/flight/recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/experiments.h"
#include "scenario/scenario.h"
#include "sim/parallel.h"
#include "sim/time.h"

namespace satin::sim {
namespace {

// Synthetic lockstep citizen: runs for a fixed number of quanta, logs its
// phase transitions into a shared (jobs=1 only) journal, and writes its
// result into a submission-order slot on finish().
class CountingTrial final : public LockstepTrial {
 public:
  CountingTrial(const TrialContext& ctx, int quanta, std::vector<int>* slots,
                std::vector<std::string>* journal)
      : index_(ctx.index), quanta_(quanta), slots_(slots), journal_(journal) {
    if (journal_ != nullptr) {
      journal_->push_back("c" + std::to_string(index_));
    }
  }

  bool done() const override { return advanced_ >= quanta_; }

  void advance(Duration quantum) override {
    EXPECT_GT(quantum, Duration::zero());
    ++advanced_;
    if (journal_ != nullptr) {
      journal_->push_back("a" + std::to_string(index_));
    }
  }

  void finish() override {
    if (slots_ != nullptr) {
      (*slots_)[index_] = advanced_;
    }
    if (journal_ != nullptr) {
      journal_->push_back("f" + std::to_string(index_));
    }
  }

 private:
  std::size_t index_;
  int quanta_;
  int advanced_ = 0;
  std::vector<int>* slots_;
  std::vector<std::string>* journal_;
};

TEST(BatchRunner, ResultsLandInSubmissionOrderSlotsForAnyBatch) {
  for (std::size_t batch : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                            std::size_t{8}, std::size_t{64}}) {
    BatchRunnerOptions options;
    options.batch = batch;
    options.runner.jobs = 4;
    BatchRunner runner(options);
    std::vector<int> slots(17, -1);
    runner.run(slots.size(), [&slots](const TrialContext& ctx) {
      // Trial i runs for (i % 5) + 1 quanta: uneven lengths inside one
      // shard exercise the round-robin's skip-finished slots.
      return std::make_unique<CountingTrial>(
          ctx, static_cast<int>(ctx.index % 5) + 1, &slots, nullptr);
    });
    for (std::size_t i = 0; i < slots.size(); ++i) {
      EXPECT_EQ(slots[i], static_cast<int>(i % 5) + 1)
          << "batch=" << batch << " trial=" << i;
    }
    EXPECT_EQ(runner.trials_run(), slots.size());
  }
}

TEST(BatchRunner, ShardMatesAdvanceInLockstepRoundRobin) {
  // jobs=1 and one shard of 3: the interleaving is fully deterministic.
  BatchRunnerOptions options;
  options.batch = 3;
  options.runner.jobs = 1;
  BatchRunner runner(options);
  std::vector<int> slots(3, -1);
  std::vector<std::string> journal;
  runner.run(3, [&slots, &journal](const TrialContext& ctx) {
    const int quanta[] = {2, 1, 3};
    return std::make_unique<CountingTrial>(ctx, quanta[ctx.index], &slots,
                                           &journal);
  });
  // Construction first (in shard order), then round-robin quanta; a trial
  // finishes in the same pass as its last advance and drops out.
  const std::vector<std::string> expected = {
      "c0", "c1", "c2",              // shard construction
      "a0", "a1", "f1", "a2",        // pass 1: trial 1 (1 quantum) retires
      "a0", "f0", "a2",              // pass 2: trial 0 retires
      "a2", "f2",                    // pass 3: trial 2 retires
  };
  EXPECT_EQ(journal, expected);
}

TEST(BatchRunner, JobsForCountsShardsNotTrials) {
  BatchRunnerOptions options;
  options.batch = 8;
  options.runner.jobs = 16;
  BatchRunner runner(options);
  EXPECT_EQ(runner.batch(), 8u);
  // 20 trials / batch 8 = 3 shards; the pool is clamped to shards (and to
  // hardware, but 3 <= any hardware count this code runs on... no — the
  // clamp also caps at options.jobs resolved vs hardware; assert <= 3).
  EXPECT_LE(runner.jobs_for(20), 3);
  EXPECT_GE(runner.jobs_for(20), 1);
  EXPECT_EQ(runner.jobs_for(0), 1);  // degenerate: pool floor is 1
}

TEST(BatchRunner, BatchZeroClampsToOneAndZeroTrialsIsANoOp) {
  BatchRunnerOptions options;
  options.batch = 0;
  options.quantum = Duration::zero();
  BatchRunner runner(options);
  EXPECT_EQ(runner.batch(), 1u);
  bool made = false;
  runner.run(0, [&made](const TrialContext&) -> std::unique_ptr<LockstepTrial> {
    made = true;
    return nullptr;
  });
  EXPECT_FALSE(made);
  EXPECT_EQ(runner.trials_run(), 0u);
}

TEST(BatchRunner, NullFactoryResultSkipsTheSlot) {
  BatchRunnerOptions options;
  options.batch = 4;
  BatchRunner runner(options);
  std::vector<int> slots(6, -1);
  runner.run(slots.size(),
             [&slots](const TrialContext& ctx) -> std::unique_ptr<LockstepTrial> {
               if (ctx.index == 2) return nullptr;
               return std::make_unique<CountingTrial>(ctx, 1, &slots, nullptr);
             });
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i], i == 2 ? -1 : 1) << "trial " << i;
  }
}

// The per-trial obs emission, split across the lockstep phases exactly as
// a real trial would split it; the run() twin emits the same calls in the
// same per-trial order from a plain trial function.
void emit_construct_obs(std::size_t index) {
  SATIN_METRIC_INC("batch.trials");
  SATIN_TRACE_INSTANT_ARG("test", "construct", Time::zero(),
                          static_cast<int>(index % 4), obs::kWorldNormal,
                          "index", index);
}
void emit_advance_obs(std::size_t index) {
  SATIN_METRIC_INC("batch.advances");
  SATIN_METRIC_OBSERVE("batch.step", 1e-3 * static_cast<double>(index));
}
void emit_finish_obs(std::size_t index) {
  SATIN_METRIC_ADD("batch.index_sum", index);
  SATIN_METRIC_GAUGE_SET("batch.last_index", index);
}

class ObsEmittingTrial final : public LockstepTrial {
 public:
  ObsEmittingTrial(const TrialContext& ctx, int quanta)
      : index_(ctx.index), quanta_(quanta) {
    emit_construct_obs(index_);
  }
  bool done() const override { return advanced_ >= quanta_; }
  void advance(Duration) override {
    ++advanced_;
    emit_advance_obs(index_);
  }
  void finish() override { emit_finish_obs(index_); }

 private:
  std::size_t index_;
  int quanta_;
  int advanced_ = 0;
};

int quanta_for(std::size_t index) { return static_cast<int>(index % 3) + 1; }

std::string sharded_metrics_json(std::size_t batch, int jobs,
                                 std::size_t trials) {
  obs::MetricsRegistry registry;
  obs::install_metrics(&registry);
  BatchRunnerOptions options;
  options.batch = batch;
  options.runner.jobs = jobs;
  BatchRunner runner(options);
  runner.run(trials, [](const TrialContext& ctx) {
    return std::make_unique<ObsEmittingTrial>(ctx, quanta_for(ctx.index));
  });
  obs::install_metrics(nullptr);
  return registry.to_json();
}

TEST(BatchRunner, MergedMetricsAreByteIdenticalToTrialRunnerRun) {
  // The unsharded twin: same emissions, same per-trial order, via run().
  obs::MetricsRegistry registry;
  obs::install_metrics(&registry);
  TrialRunnerOptions options;
  options.jobs = 4;
  TrialRunner plain(options);
  plain.run(std::size_t{23}, [](const TrialContext& ctx) {
    emit_construct_obs(ctx.index);
    for (int k = 0; k < quanta_for(ctx.index); ++k) emit_advance_obs(ctx.index);
    emit_finish_obs(ctx.index);
  });
  obs::install_metrics(nullptr);
  const std::string reference = registry.to_json();

  for (std::size_t batch : {std::size_t{1}, std::size_t{4}, std::size_t{23},
                            std::size_t{64}}) {
    EXPECT_EQ(sharded_metrics_json(batch, 1, 23), reference)
        << "batch=" << batch << " jobs=1";
    EXPECT_EQ(sharded_metrics_json(batch, 4, 23), reference)
        << "batch=" << batch << " jobs=4";
  }
}

TEST(BatchRunner, TraceEventsMergeInSubmissionOrderAcrossShards) {
  for (std::size_t batch : {std::size_t{1}, std::size_t{3}}) {
    obs::TraceRecorder recorder(1024);
    obs::install_tracer(&recorder);
    BatchRunnerOptions options;
    options.batch = batch;
    options.runner.jobs = 4;
    BatchRunner runner(options);
    runner.run(std::size_t{12}, [](const TrialContext& ctx) {
      return std::make_unique<ObsEmittingTrial>(ctx, 1);
    });
    obs::install_tracer(nullptr);
    const auto events = recorder.snapshot();
#if SATIN_OBS_ENABLED
    ASSERT_EQ(events.size(), 12u) << "batch=" << batch;
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_DOUBLE_EQ(events[i].arg_value, static_cast<double>(i))
          << "batch=" << batch;
    }
#else
    EXPECT_TRUE(events.empty());
#endif
  }
}

class ThrowingTrial final : public LockstepTrial {
 public:
  ThrowingTrial(const TrialContext& ctx, int throw_at, std::vector<int>* slots)
      : index_(ctx.index), throw_at_(throw_at), slots_(slots) {}
  bool done() const override { return advanced_ >= 3; }
  void advance(Duration) override {
    if (throw_at_ >= 0 && advanced_ == throw_at_) {
      throw std::runtime_error("trial " + std::to_string(index_));
    }
    ++advanced_;
  }
  void finish() override { (*slots_)[index_] = advanced_; }

 private:
  std::size_t index_;
  int throw_at_;
  int advanced_ = 0;
  std::vector<int>* slots_;
};

TEST(BatchRunner, ThrowingTrialIsCapturedAndShardMatesFinish) {
  for (std::size_t batch : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    BatchRunnerOptions options;
    options.batch = batch;
    options.runner.jobs = 2;
    BatchRunner runner(options);
    std::vector<int> slots(10, -1);
    try {
      runner.run(slots.size(), [&slots](const TrialContext& ctx) {
        // Trials 2 and 7 blow up mid-lockstep; everyone else completes.
        const int throw_at =
            (ctx.index == 2 || ctx.index == 7) ? 1 : -1;
        return std::make_unique<ThrowingTrial>(ctx, throw_at, &slots);
      });
      FAIL() << "expected rethrow (batch=" << batch << ")";
    } catch (const std::runtime_error& e) {
      // First by submission order, regardless of shard layout.
      EXPECT_STREQ(e.what(), "trial 2") << "batch=" << batch;
    }
    for (std::size_t i = 0; i < slots.size(); ++i) {
      EXPECT_EQ(slots[i], (i == 2 || i == 7) ? -1 : 3)
          << "batch=" << batch << " trial=" << i;
    }
  }
}

TEST(BatchRunner, ThrowingFactoryIsCapturedAndShardMatesStillRun) {
  BatchRunnerOptions options;
  options.batch = 4;
  BatchRunner runner(options);
  std::vector<int> slots(4, -1);
  EXPECT_THROW(
      runner.run(slots.size(),
                 [&slots](const TrialContext& ctx)
                     -> std::unique_ptr<LockstepTrial> {
                   if (ctx.index == 1) throw std::runtime_error("ctor boom");
                   return std::make_unique<CountingTrial>(ctx, 2, &slots,
                                                          nullptr);
                 }),
      std::runtime_error);
  EXPECT_EQ(slots[0], 2);
  EXPECT_EQ(slots[1], -1);
  EXPECT_EQ(slots[2], 2);
  EXPECT_EQ(slots[3], 2);
}

// ---------------------------------------------------------------------------
// End-to-end: a real duel sweep must be invariant under --batch. This is
// the scenario-level closure of the draw-pipeline identity chain: batched
// streams bit-match the scalar oracle (rng_test), the shared time buffer
// bit-matches across modes (time_buffer_test), so whole DuelReports must
// too — and the merged engine metrics with them. The batch=1 references
// below draw through DrawMode::kScalar; every other run takes the batched
// default, so each comparison also checks the oracle.

// The sweep `customize` hook that pins a trial to the scalar oracle.
void scalar_draws(const TrialContext&, scenario::ScenarioConfig& config,
                  scenario::DuelConfig&) {
  config.platform.draw_mode = DrawMode::kScalar;
}

void expect_reports_equal(const scenario::DuelReport& a,
                          const scenario::DuelReport& b, std::size_t trial,
                          std::size_t batch) {
  const std::string where =
      "trial=" + std::to_string(trial) + " batch=" + std::to_string(batch);
  EXPECT_EQ(a.rounds, b.rounds) << where;
  EXPECT_EQ(a.alarms, b.alarms) << where;
  EXPECT_EQ(a.full_cycles, b.full_cycles) << where;
  EXPECT_EQ(a.target_area, b.target_area) << where;
  EXPECT_EQ(a.target_area_rounds, b.target_area_rounds) << where;
  EXPECT_EQ(a.target_area_alarms, b.target_area_alarms) << where;
  EXPECT_DOUBLE_EQ(a.avg_target_gap_s, b.avg_target_gap_s) << where;
  EXPECT_EQ(a.secure_stays, b.secure_stays) << where;
  EXPECT_EQ(a.prober_detections, b.prober_detections) << where;
  EXPECT_EQ(a.false_positives, b.false_positives) << where;
  EXPECT_EQ(a.false_negatives, b.false_negatives) << where;
  EXPECT_EQ(a.evasions_started, b.evasions_started) << where;
  EXPECT_EQ(a.rearms, b.rearms) << where;
  EXPECT_DOUBLE_EQ(a.sim_seconds, b.sim_seconds) << where;
  EXPECT_EQ(a.confirmed_alarms, b.confirmed_alarms) << where;
  EXPECT_EQ(a.transient_alarms, b.transient_alarms) << where;
  EXPECT_EQ(a.benign_confirmed_alarms, b.benign_confirmed_alarms) << where;
  EXPECT_EQ(a.watchdog_fires, b.watchdog_fires) << where;
  EXPECT_EQ(a.scan_retries, b.scan_retries) << where;
}

scenario::DuelSweep run_sweep_with_batch(int batch, DrawMode draws,
                                         std::size_t trials,
                                         std::string* metrics_json) {
  obs::MetricsRegistry registry;
  obs::install_metrics(&registry);
  scenario::DuelSweepConfig config;
  config.duel.satin.tp_s = 2.0;
  config.duel.rounds_target = 8;
  config.trials = trials;
  config.jobs = 1;
  config.root_seed = 0xBA7C4ull;
  config.batch = batch;
  scenario::DuelSweep sweep = scenario::run_duel_sweep(
      config, draws == DrawMode::kScalar ? scalar_draws : nullptr);
  obs::install_metrics(nullptr);
  if (metrics_json != nullptr) *metrics_json = registry.to_json();
  return sweep;
}

TEST(BatchRunner, DuelSweepIsInvariantUnderBatchSize) {
  const std::size_t kTrials = 4;
  std::string reference_metrics;
  const scenario::DuelSweep reference = run_sweep_with_batch(
      1, DrawMode::kScalar, kTrials, &reference_metrics);
  ASSERT_EQ(reference.reports.size(), kTrials);

  // batch=1 again on the default draws isolates the draw mode; batch=3
  // splits the 4 trials into shards {3,1}; batch=8 puts all four in one
  // shard.
  for (int batch : {1, 3, 8}) {
    std::string metrics;
    const scenario::DuelSweep sweep =
        run_sweep_with_batch(batch, DrawMode::kBatched, kTrials, &metrics);
    ASSERT_EQ(sweep.reports.size(), kTrials) << "batch=" << batch;
    EXPECT_EQ(sweep.jobs, reference.jobs) << "batch=" << batch;
    for (std::size_t i = 0; i < kTrials; ++i) {
      expect_reports_equal(reference.reports[i], sweep.reports[i], i,
                           static_cast<std::size_t>(batch));
    }
    EXPECT_EQ(metrics, reference_metrics) << "batch=" << batch;
  }
}

// ---------------------------------------------------------------------------
// PR-10 fused engine pass: merged event frontiers plus the shard-shared
// kernel image / pristine digest base must stay an identity transform at
// every batch size — DuelReports, the stable metrics snapshot, AND the
// flight chain hash. --fused=off (the PR-9 round-robin loop) is held to
// the same reference, which is what makes the recorded A/B honest.

scenario::DuelSweep run_fused_sweep(int batch, bool fused, DrawMode draws,
                                    std::size_t trials,
                                    std::string* stable_metrics,
                                    std::uint64_t* flight_chain) {
  const std::string flight_path =
      ::testing::TempDir() + "/fused_sweep_b" + std::to_string(batch) +
      (fused ? "_on" : "_off") +
      (draws == DrawMode::kScalar ? "_scalar" : "") + ".flt";
  obs::MetricsRegistry registry;
  obs::install_metrics(&registry);
  scenario::DuelSweep sweep;
  {
    obs::FlightRecorder::Options fopts;
    fopts.path = flight_path;
    obs::FlightRecorder recorder(fopts);
    obs::install_flight(&recorder);
    scenario::DuelSweepConfig config;
    config.duel.satin.tp_s = 1.0;
    config.duel.rounds_target = 3;
    config.trials = trials;
    config.jobs = 1;
    config.root_seed = 0xBA7C4ull;
    config.batch = batch;
    config.fused = fused;
    sweep = scenario::run_duel_sweep(
        config, draws == DrawMode::kScalar ? scalar_draws : nullptr);
    obs::install_flight(nullptr);
    EXPECT_TRUE(recorder.close());
  }
  obs::install_metrics(nullptr);
  *stable_metrics = registry.to_json(/*include_volatile=*/false);
  obs::FlightLog log;
  std::string error;
  EXPECT_TRUE(obs::read_flight_log(flight_path, log, &error)) << error;
  *flight_chain = log.chain_hash;
  std::remove(flight_path.c_str());
  return sweep;
}

TEST(BatchRunner, FusedPassIsInvariantAcrossBatchSizes) {
  // 33 trials: batch=3 makes 11 full shards, batch=8 leaves a partial
  // shard of 1, batch=33 fuses every trial into one merged frontier.
  const std::size_t kTrials = 33;
  std::string reference_metrics;
  std::uint64_t reference_chain = 0;
  const scenario::DuelSweep reference =
      run_fused_sweep(1, /*fused=*/true, DrawMode::kScalar, kTrials,
                      &reference_metrics, &reference_chain);
  ASSERT_EQ(reference.reports.size(), kTrials);

  struct Mode {
    int batch;
    bool fused;
  };
  for (const Mode mode : {Mode{3, true}, Mode{8, true}, Mode{33, true},
                          Mode{8, false}}) {
    std::string metrics;
    std::uint64_t chain = 0;
    const scenario::DuelSweep sweep =
        run_fused_sweep(mode.batch, mode.fused, DrawMode::kBatched, kTrials,
                        &metrics, &chain);
    const std::string where = "batch=" + std::to_string(mode.batch) +
                              " fused=" + (mode.fused ? "on" : "off");
    ASSERT_EQ(sweep.reports.size(), kTrials) << where;
    for (std::size_t i = 0; i < kTrials; ++i) {
      expect_reports_equal(reference.reports[i], sweep.reports[i], i,
                           static_cast<std::size_t>(mode.batch));
    }
    EXPECT_EQ(metrics, reference_metrics) << where;
    EXPECT_EQ(chain, reference_chain) << where;
  }
}

// ---------------------------------------------------------------------------
// Straggler fallback: a shard mixing fused lanes with trials that decline
// the fused contract (fused_engine() == nullptr) must complete both
// populations through their respective paths — merged frontiers for the
// fused lanes, the classic per-trial advance(quantum) for the stragglers
// — and reproduce the scalar per-trial reports exactly. The stragglers
// here carry fault plans, so the two populations also finish at genuinely
// different times (faulted duels take extra rounds to converge).

class FaultedDuelLockstepTrial final : public LockstepTrial {
 public:
  FaultedDuelLockstepTrial(std::uint64_t seed, const std::string& fault_spec,
                           bool offer_engine, DrawMode draws,
                           scenario::DuelReport* out,
                           std::uint64_t* faults_out = nullptr)
      : offer_engine_(offer_engine), out_(out), faults_out_(faults_out) {
    scenario::ScenarioConfig config;
    config.platform.seed = seed;
    config.platform.draw_mode = draws;
    system_ = std::make_unique<scenario::Scenario>(config);
    injector_ = fault::install_from_spec(system_->platform(), fault_spec);
    scenario::DuelConfig duel;
    duel.satin.tp_s = 1.0;
    duel.rounds_target = 5;
    trial_ = std::make_unique<scenario::DuelTrial>(*system_, duel);
  }

  bool done() const override { return trial_->done(); }
  void advance(Duration quantum) override { trial_->advance(quantum); }
  Engine* fused_engine() override {
    return offer_engine_ ? &system_->engine() : nullptr;
  }
  void finish() override {
    *out_ = trial_->finish();
    if (faults_out_ != nullptr && injector_ != nullptr) {
      *faults_out_ = injector_->injected_total();
    }
  }

 private:
  bool offer_engine_;
  scenario::DuelReport* out_;
  std::uint64_t* faults_out_;
  std::unique_ptr<scenario::Scenario> system_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<scenario::DuelTrial> trial_;
};

TEST(BatchRunner, StragglersWithFaultPlansFallBackPerTrialInsideAFusedShard) {
  // Odd slots carry a bit-flip storm and decline the fused engine; even
  // slots run clean through the merged frontier. One shard holds all six.
  const std::size_t kTrials = 6;
  const std::string kStorm = "seed=7,bitflip@1s+30s:p=0.5";
  const auto seed_for = [](std::size_t i) {
    return 0x5EED0ull + 977u * static_cast<std::uint64_t>(i);
  };
  const auto spec_for = [&](std::size_t i) {
    return i % 2 == 1 ? kStorm : std::string();
  };

  // Scalar reference: each trial alone on the scalar draw oracle, the
  // plain done/advance/finish loop.
  std::vector<scenario::DuelReport> reference(kTrials);
  for (std::size_t i = 0; i < kTrials; ++i) {
    FaultedDuelLockstepTrial trial(seed_for(i), spec_for(i),
                                   /*offer_engine=*/false, DrawMode::kScalar,
                                   &reference[i]);
    while (!trial.done()) trial.advance(Duration::from_sec(1));
    trial.finish();
  }

  std::vector<scenario::DuelReport> fused(kTrials);
  std::vector<std::uint64_t> faults(kTrials, 0);
  run_lockstep_shard(
      kTrials, Duration::from_sec(1), /*fused=*/true,
      [&](std::size_t i) {
        return std::make_unique<FaultedDuelLockstepTrial>(
            seed_for(i), spec_for(i), /*offer_engine=*/i % 2 == 0,
            DrawMode::kBatched, &fused[i], &faults[i]);
      },
      [](std::size_t, const std::function<void()>& fn) { fn(); },
      [](std::size_t slot, std::exception_ptr) {
        FAIL() << "trial " << slot << " threw";
      });

  for (std::size_t i = 0; i < kTrials; ++i) {
    expect_reports_equal(reference[i], fused[i], i, kTrials);
  }
  // The storm actually fired on the straggler lanes, so the fallback path
  // carried real fault traffic and the two populations were not twins.
  for (std::size_t i = 0; i < kTrials; ++i) {
    if (i % 2 == 1) {
      EXPECT_GT(faults[i], 0u) << "trial " << i;
    } else {
      EXPECT_EQ(faults[i], 0u) << "trial " << i;
    }
  }
}

}  // namespace
}  // namespace satin::sim
