// run_campaign_trial against the scalar draw oracle. Every campaign trial
// draws through the batched block kernels by default; pinning the spec's
// platform to DrawMode::kScalar must change nothing a campaign persists:
// the journal record and the per-trial SATNMET1 metrics file.
#include "campaign/trial.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "campaign/spec.h"
#include "obs/metrics.h"
#include "sim/parallel.h"
#include "sim/rng.h"

namespace satin::campaign {
namespace {

// Short duels under a reseeded storm of scan, timer and memory faults,
// so the fault injector's draws interleave with the prober's.
constexpr char kFaultedSpec[] = R"({
  "trials": 3,
  "root_seed": 7,
  "satin": {"tgoal_s": 8.0, "randomize_wake": true,
            "resilience": {"watchdog": true, "max_scan_retries": 2}},
  "duel": {"rounds_target": 5},
  "faults": "seed=9,timer-misfire@1s+5s:p=0.35,smc-fail@2s+5s:p=0.25,bitflip@1s+15s:p=0.3",
  "faults_reseed": true
})";

struct PersistedTrial {
  std::string record;
  std::string metrics;  // SATNMET1 bytes
  std::uint64_t faults_injected = 0;
};

// What a campaign worker persists for trial `index`: the journal line and
// the trial's metrics registry saved as SATNMET1.
PersistedTrial run_and_persist(const CampaignSpec& spec, std::uint64_t index,
                               const std::string& tag) {
  obs::MetricsRegistry registry;
  TrialResult result;
  {
    sim::TrialObsScope sinks(&registry, nullptr, nullptr);
    result = run_campaign_trial(spec, index);
  }
  const std::string path = testing::TempDir() + "/campaign_trial_" + tag +
                           "_" + std::to_string(index) + ".met";
  std::string error;
  EXPECT_TRUE(registry.save_binary(path, &error)) << error;
  std::ifstream in(path, std::ios::binary);
  PersistedTrial out;
  out.record = encode_trial_record(result);
  out.metrics.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
  out.faults_injected = result.faults_injected;
  std::remove(path.c_str());
  return out;
}

TEST(CampaignTrial, ScalarDrawOracleMatchesTheDefaultRecordAndMetrics) {
  const CampaignSpec batched = parse_campaign_spec(kFaultedSpec, "faulted");
  ASSERT_EQ(batched.scenario.platform.draw_mode, sim::DrawMode::kBatched);
  CampaignSpec scalar = batched;
  scalar.scenario.platform.draw_mode = sim::DrawMode::kScalar;

  std::uint64_t faults = 0;
  for (std::uint64_t i = 0; i < batched.trials; ++i) {
    const PersistedTrial want = run_and_persist(scalar, i, "scalar");
    const PersistedTrial got = run_and_persist(batched, i, "batched");
    EXPECT_EQ(got.record, want.record) << "trial " << i;
    ASSERT_FALSE(want.metrics.empty()) << "trial " << i;
    EXPECT_EQ(got.metrics, want.metrics) << "trial " << i;
    faults += want.faults_injected;
  }
  // The storm fired, so the comparison covered faulted duels.
  EXPECT_GT(faults, 0u);
}

}  // namespace
}  // namespace satin::campaign
