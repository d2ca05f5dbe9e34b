// run_campaign_trial against the process-wide set-up cache (DESIGN.md
// §20): a trial persists the same bytes — the journal record, the
// per-trial SATNMET1 metrics file and the flight stream (compared by its
// chain hash over every commit) — whether it boots cold or after other
// trials warmed the cache. The exact oracles (scalar draws, event-per-
// round cycles, digest-cache shadow mode) are compared on every campaign
// trial shape in tests/integration/oracle_sweep_test.cpp.
#include "campaign/trial.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "campaign/spec.h"
#include "obs/flight/recorder.h"
#include "obs/metrics.h"
#include "sim/parallel.h"

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
  std::uint64_t flight_chain = 0;
};

// What a campaign worker persists for trial `index`: the journal line, the
// trial's metrics registry saved as SATNMET1 and its flight stream (here
// its chain hash).
PersistedTrial run_and_persist(const CampaignSpec& spec, std::uint64_t index,
                               const std::string& tag) {
  obs::MetricsRegistry registry;
  obs::FlightRecorder flight;
  TrialResult result;
  {
    sim::TrialObsScope sinks(&registry, &flight);
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
  out.flight_chain = flight.chain_hash();
  std::remove(path.c_str());
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(CampaignTrial, PersistedBytesDoNotDependOnWhatRanBeforeInTheProcess) {
  CampaignSpec spec = parse_campaign_spec(kFaultedSpec, "faulted");
  spec.trials = 11;
  constexpr std::uint64_t kIndex = 10;

  // First in a fresh process: a forked child runs trial 10 before anything
  // else. ctest runs each test in its own process, so the child builds the
  // kernel image and pristine chains itself, as a cold campaign worker does.
  const std::string dir = testing::TempDir() + "/fresh_trial_" +
                          std::to_string(::getpid());
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const PersistedTrial fresh = run_and_persist(spec, kIndex, "fresh");
    std::ofstream(dir + ".rec", std::ios::binary) << fresh.record;
    std::ofstream(dir + ".met", std::ios::binary) << fresh.metrics;
    std::ofstream(dir + ".chain") << fresh.flight_chain;
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  PersistedTrial fresh;
  fresh.record = slurp(dir + ".rec");
  fresh.metrics = slurp(dir + ".met");
  std::istringstream(slurp(dir + ".chain")) >> fresh.flight_chain;
  for (const char* ext : {".rec", ".met", ".chain"}) {
    std::remove((dir + ext).c_str());
  }

  // After ten other trials in this process.
  for (std::uint64_t i = 0; i < kIndex; ++i) run_and_persist(spec, i, "warm");
  const PersistedTrial warm = run_and_persist(spec, kIndex, "warm");

  ASSERT_FALSE(fresh.record.empty());
  ASSERT_FALSE(fresh.metrics.empty());
  EXPECT_EQ(warm.record, fresh.record);
  EXPECT_EQ(warm.metrics, fresh.metrics);
  EXPECT_NE(fresh.flight_chain, 0u);
  EXPECT_EQ(warm.flight_chain, fresh.flight_chain);
}

}  // namespace
}  // namespace satin::campaign
