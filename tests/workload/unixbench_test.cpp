#include "workload/unixbench.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/satin.h"
#include "scenario/scenario.h"

namespace satin::workload {
namespace {

using sim::Duration;

TEST(UnixBenchSuite, HasTheTwelveFig7Programs) {
  const auto& suite = unixbench_suite();
  ASSERT_EQ(suite.size(), 12u);
  EXPECT_EQ(suite[0].name, "dhrystone2");
  EXPECT_EQ(suite[3].name, "file_copy_256B");
  EXPECT_EQ(suite[7].name, "context_switching");
}

TEST(UnixBenchSuite, WorstTwoArePipeAndBufferHeavyTests) {
  // Fig. 7's calibration: file copy 256B and context switching carry the
  // largest disruption penalties.
  const auto& suite = unixbench_suite();
  auto penalty = [&](const std::string& name) {
    for (const auto& w : suite) {
      if (w.name == name) return w.disruption_penalty;
    }
    ADD_FAILURE() << name;
    return Duration::zero();
  };
  const Duration fc = penalty("file_copy_256B");
  const Duration cs = penalty("context_switching");
  for (const auto& w : suite) {
    if (w.name == "file_copy_256B" || w.name == "context_switching") continue;
    EXPECT_LT(w.disruption_penalty, fc) << w.name;
    EXPECT_LT(w.disruption_penalty, cs) << w.name;
  }
  EXPECT_GT(cs, fc);  // context switching is the single worst bar
}

TEST(WorkloadThread, CountsIterations) {
  scenario::Scenario s;
  auto* t = static_cast<WorkloadThread*>(s.os().add_thread(
      std::make_unique<WorkloadThread>(unixbench_suite()[0])));
  s.run_for(Duration::from_sec(1));
  // dhrystone: 100 us per iteration on a dedicated core ~ 10k/s.
  EXPECT_NEAR(static_cast<double>(t->iterations()), 10'000, 300);
}

TEST(WorkloadThread, StopRequestExits) {
  scenario::Scenario s;
  auto* t = static_cast<WorkloadThread*>(s.os().add_thread(
      std::make_unique<WorkloadThread>(unixbench_suite()[0])));
  s.run_for(Duration::from_ms(100));
  t->request_stop();
  s.run_for(Duration::from_ms(10));
  EXPECT_TRUE(t->stopped());
  const auto iters = t->iterations();
  s.run_for(Duration::from_ms(100));
  EXPECT_EQ(t->iterations(), iters);
}

TEST(WorkloadThread, PenaltyConsumesTimeWithoutCounting) {
  scenario::Scenario s;
  auto* t = static_cast<WorkloadThread*>(s.os().add_thread(
      std::make_unique<WorkloadThread>(unixbench_suite()[0])));
  s.run_for(Duration::from_ms(500));
  const auto before = t->iterations();
  t->add_penalty(Duration::from_ms(200));
  s.run_for(Duration::from_ms(500));
  const auto gained = t->iterations() - before;
  // ~300 ms of useful time out of 500 -> ~3000 iterations instead of 5000.
  EXPECT_NEAR(static_cast<double>(gained), 3000, 200);
}

TEST(Harness, BaselineSuiteScoresArePositiveAndStable) {
  scenario::Scenario s;
  UnixBenchHarness harness(s.os());
  const auto results = harness.run_suite(Duration::from_sec(2), 1);
  ASSERT_EQ(results.size(), 12u);
  for (const auto& r : results) {
    EXPECT_GT(r.score, 0.0) << r.name;
  }
  // Scores reflect iteration costs: dhrystone (100 us) ~ 2x whetstone?
  // no — simply check ordering against cost.
  EXPECT_GT(results[0].score, results[9].score);  // 100us beats 5ms shell
}

TEST(Harness, WorkloadStillRunningAfterTheDrainThrows) {
  // 10 ms before dhrystone2's 100 ms window ends, its copy takes a 2 s
  // penalty: the stop request finds it mid-penalty, and it is still
  // burning it when the 500 ms drain ends.
  scenario::Scenario s;
  UnixBenchHarness harness(s.os());
  const sim::Time start = s.now();
  s.engine().schedule_at(start + Duration::from_ms(90), [&s] {
    for (int c = 0; c < s.platform().num_cores(); ++c) {
      if (auto* t = dynamic_cast<WorkloadThread*>(s.os().running_thread(c))) {
        t->add_penalty(Duration::from_sec(2));
      }
    }
  });
  try {
    harness.run_suite(Duration::from_ms(100), 1);
    FAIL() << "run_suite returned with a workload still running";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unixbench/dhrystone2 still running on core 0"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("t=" + (start + Duration::from_ms(600)).to_string()),
              std::string::npos)
        << what;
  }
}

TEST(Harness, CompareRunsComputesDegradation) {
  std::vector<UnixBenchHarness::Result> base{{"a", 100.0}, {"b", 50.0}};
  std::vector<UnixBenchHarness::Result> with{{"a", 99.0}, {"b", 48.0}};
  const auto rows = compare_runs(base, with);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_NEAR(rows[0].degradation, 0.01, 1e-12);
  EXPECT_NEAR(rows[1].degradation, 0.04, 1e-12);
  EXPECT_NEAR(mean_degradation(rows), 0.025, 1e-12);
}

TEST(Harness, CompareRunsValidates) {
  std::vector<UnixBenchHarness::Result> base{{"a", 1.0}};
  std::vector<UnixBenchHarness::Result> two{{"a", 1.0}, {"b", 1.0}};
  std::vector<UnixBenchHarness::Result> wrong{{"x", 1.0}};
  EXPECT_THROW(compare_runs(base, two), std::invalid_argument);
  EXPECT_THROW(compare_runs(base, wrong), std::invalid_argument);
}

TEST(Harness, SatinDisruptionReducesSensitiveScores) {
  // A fast-waking SATIN measurably hurts file_copy_256B / context
  // switching while barely touching dhrystone — Fig. 7's shape. Both the
  // introspection and the workload are pinned to core 2 so the per-window
  // intrusion count is deterministic rather than Poisson-sparse.
  auto degradation = [](const WorkloadSpec& spec) {
    auto measure = [&spec](bool with_satin) {
      scenario::Scenario s;
      core::SatinConfig config;
      config.tp_s = 0.5;
      config.multi_core = false;
      config.fixed_core = 2;
      core::Satin satin(s.platform(), s.kernel(), s.tsp(), config);
      if (with_satin) satin.start();
      UnixBenchHarness harness(s.os());  // delivers the exit penalties
      auto thread = std::make_unique<WorkloadThread>(spec);
      thread->pin_to_core(2);
      auto* t =
          static_cast<WorkloadThread*>(s.os().add_thread(std::move(thread)));
      // Keep the harness aware of our thread via a manual suite run? No —
      // deliver penalties directly through a world listener equivalent:
      // the harness only penalizes threads it spawned, so emulate it.
      struct Penalizer : hw::WorldListener {
        WorkloadThread* target;
        void on_secure_entry(hw::CoreId, sim::Time) override {}
        void on_secure_exit(hw::CoreId core, sim::Time) override {
          if (core == target->current_core() && !target->stopped()) {
            target->add_penalty(target->spec().disruption_penalty);
          }
        }
      } penalizer;
      penalizer.target = t;
      s.platform().core(2).add_world_listener(&penalizer);
      s.run_for(Duration::from_sec(5));
      s.platform().core(2).remove_world_listener(&penalizer);
      return static_cast<double>(t->iterations());
    };
    const double base = measure(false);
    const double with = measure(true);
    return 1.0 - with / base;
  };
  const auto& suite = unixbench_suite();
  const double dhrystone = degradation(suite[0]);
  const double fc256 = degradation(suite[3]);
  const double ctx = degradation(suite[7]);
  EXPECT_GT(fc256, 4 * std::max(dhrystone, 1e-4));
  EXPECT_GT(ctx, 4 * std::max(dhrystone, 1e-4));
  EXPECT_LT(dhrystone, 0.03);
}

}  // namespace
}  // namespace satin::workload
