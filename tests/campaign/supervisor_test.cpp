// End-to-end supervisor tests: real fork()ed workers, real pipes, real
// SIGKILLs (via the deterministic chaos knobs). Duels are kept tiny so
// the whole file runs in seconds.
#include "campaign/supervisor.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "campaign/journal.h"
#include "campaign/json.h"
#include "campaign/spec.h"
#include "obs/file_io.h"
#include "obs/flight/recorder.h"

namespace satin::campaign {
namespace {

constexpr char kTinySpec[] = R"({
  "trials": 4,
  "root_seed": 42,
  "satin": {"tgoal_s": 8.0},
  "duel": {"rounds_target": 5}
})";

// kTinySpec stopped after 50 simulated milliseconds: a healthy trial fits
// a 1 s trial timeout even under TSan, where a kTinySpec trial takes
// about 1.4 s.
constexpr char kQuickSpec[] = R"({
  "trials": 4,
  "root_seed": 42,
  "satin": {"tgoal_s": 8.0},
  "duel": {"rounds_target": 5, "max_sim_seconds": 0.05}
})";

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The pid keeps concurrently running test processes apart: under a
    // sanitizer's deterministic heap two of them can share `this`.
    base_ = testing::TempDir() + "/campaign_sup_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this));
    spec_ = parse_campaign_spec(kTinySpec, "tiny");
  }
  void TearDown() override {
    std::remove((base_ + ".journal").c_str());
    std::remove((base_ + ".b.journal").c_str());
    for (std::uint64_t i = 0; i < spec_.trials; ++i) {
      for (const char* j : {".journal.d", ".b.journal.d"}) {
        std::remove((base_ + j + "/trial_" + std::to_string(i) + ".met")
                        .c_str());
        std::remove((base_ + j + "/trial_" + std::to_string(i) + ".flt")
                        .c_str());
      }
    }
    ::rmdir((base_ + ".journal.d").c_str());
    ::rmdir((base_ + ".b.journal.d").c_str());
  }

  CampaignOptions options(const std::string& suffix = ".journal") {
    CampaignOptions o;
    o.journal_path = base_ + suffix;
    o.trial_timeout_s = 60.0;
    return o;
  }

  std::string base_;
  CampaignSpec spec_;
};

TEST_F(SupervisorTest, RunsACampaignToCompletion) {
  CampaignOptions o = options();
  o.jobs = 2;
  const CampaignOutcome outcome = run_campaign(spec_, o);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_FALSE(outcome.degraded);
  EXPECT_EQ(outcome.completed, spec_.trials);
  EXPECT_EQ(outcome.worker_crashes, 0u);
  EXPECT_EQ(outcome.workers_spawned, 2u);

  CampaignJournal::Status status;
  std::string error;
  ASSERT_TRUE(
      CampaignJournal::read_status(o.journal_path, status, &error)) << error;
  EXPECT_EQ(status.completed, spec_.trials);
}

TEST_F(SupervisorTest, RerunOnCompleteJournalSpawnsNothing) {
  CampaignOptions o = options();
  o.jobs = 2;
  ASSERT_TRUE(run_campaign(spec_, o).ok);
  const CampaignOutcome again = run_campaign(spec_, o);
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.resumed, spec_.trials);
  EXPECT_EQ(again.completed, spec_.trials);
  EXPECT_EQ(again.workers_spawned, 0u);
}

TEST_F(SupervisorTest, WorkerSigkillRetriesAndStatsStayIdentical) {
  // Reference: jobs=1, no chaos.
  CampaignOptions ref = options();
  ref.jobs = 1;
  const CampaignOutcome ref_outcome = run_campaign(spec_, ref);
  ASSERT_TRUE(ref_outcome.ok) << ref_outcome.error;

  // Chaos: two workers, one SIGKILLs itself on trial 2's first dispatch.
  CampaignOptions chaos = options(".b.journal");
  chaos.jobs = 2;
  chaos.chaos_kill_trial = 2;
  const CampaignOutcome chaos_outcome = run_campaign(spec_, chaos);
  ASSERT_TRUE(chaos_outcome.ok) << chaos_outcome.error;
  EXPECT_FALSE(chaos_outcome.degraded);
  EXPECT_GE(chaos_outcome.worker_crashes, 1u);
  EXPECT_GE(chaos_outcome.retries, 1u);
  EXPECT_EQ(chaos_outcome.completed, spec_.trials);

  // Crash identity: the two journals aggregate to byte-identical stats.
  std::string error;
  CampaignJournal a, b;
  ASSERT_TRUE(a.open(ref.journal_path, spec_, &error)) << error;
  ASSERT_TRUE(b.open(chaos.journal_path, spec_, &error)) << error;
  EXPECT_EQ(format_campaign_stats(spec_, ref_outcome, a.completed()),
            format_campaign_stats(spec_, chaos_outcome, b.completed()));
}

TEST_F(SupervisorTest, ExhaustedRetriesDegradeInsteadOfHanging) {
  CampaignOptions o = options();
  o.jobs = 1;
  o.max_retries = 0;  // the chaos kill consumes the only attempt
  o.chaos_kill_trial = 1;
  const CampaignOutcome outcome = run_campaign(spec_, o);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_TRUE(outcome.degraded);
  ASSERT_EQ(outcome.failed_trials.size(), 1u);
  EXPECT_EQ(outcome.failed_trials[0], 1u);
  EXPECT_EQ(outcome.completed, spec_.trials - 1);

  // The failed trial is visible in the stats, not silently absent.
  CampaignJournal journal;
  std::string error;
  ASSERT_TRUE(journal.open(o.journal_path, spec_, &error)) << error;
  const std::string stats =
      format_campaign_stats(spec_, outcome, journal.completed());
  EXPECT_NE(stats.find("\"degraded\": true"), std::string::npos);
  EXPECT_NE(stats.find("\"failed_trials\": [1]"), std::string::npos);
}

TEST_F(SupervisorTest, HungWorkerIsKilledAfterTimeout) {
  spec_ = parse_campaign_spec(kQuickSpec, "quick");
  CampaignOptions o = options();
  o.jobs = 1;
  o.trial_timeout_s = 1.0;
  o.chaos_hang_trial = 0;
  const CampaignOutcome outcome = run_campaign(spec_, o);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_FALSE(outcome.degraded);
  EXPECT_GE(outcome.worker_timeouts, 1u);
  EXPECT_EQ(outcome.completed, spec_.trials);
}

TEST_F(SupervisorTest, ResumeRefusesWithoutAJournal) {
  CampaignOptions o = options();
  o.require_existing_journal = true;
  const CampaignOutcome outcome = run_campaign(spec_, o);
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("no journal"), std::string::npos);
}

// --out=/dev/null is refused before the journal exists, not after every
// trial has run and been journalled.
TEST_F(SupervisorTest, NonRegularStatsPathFailsBeforeTheJournalOpens) {
  CampaignOptions o = options();
  o.stats_path = "/dev/null";
  const CampaignOutcome outcome = run_campaign(spec_, o);
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("non-regular"), std::string::npos)
      << outcome.error;
  EXPECT_EQ(outcome.workers_spawned, 0u);
  EXPECT_NE(::access(o.journal_path.c_str(), F_OK), 0);
}

// A worker that cannot open a trial's flight artifact names the path and
// gives the trial up before running it: a spill recorder without its file
// would keep the whole stream in memory.
TEST_F(SupervisorTest, UnopenableFlightArtifactIsNamedBeforeTheTrialRuns) {
  spec_ = parse_campaign_spec(kQuickSpec, "quick");
  spec_.trials = 1;
  CampaignOptions o = options();
  o.jobs = 1;
  o.max_retries = 0;
  const std::string squatter = o.journal_path + ".d/trial_0.flt";
  ASSERT_EQ(::mkdir((o.journal_path + ".d").c_str(), 0777), 0);
  ASSERT_EQ(::mkdir(squatter.c_str(), 0777), 0);

  obs::FlightRecorder session;  // in memory: the campaign records flight
  obs::install_flight(&session);
  testing::internal::CaptureStderr();
  const CampaignOutcome outcome = run_campaign(spec_, o);
  const std::string err = testing::internal::GetCapturedStderr();
  obs::install_flight(nullptr);

  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.failed_trials, std::vector<std::uint64_t>{0});
  EXPECT_NE(err.find(squatter), std::string::npos) << err;
}

// The spec's name is user text: a quote or a backslash in it must still
// leave the stats file valid JSON that reads the name back.
TEST(CampaignStats, NameIsEscapedIntoValidJson) {
  CampaignSpec spec =
      parse_campaign_spec(R"({"name": "a\"b\\c", "trials": 1})", "named");
  ASSERT_EQ(spec.name, "a\"b\\c");
  const std::string body =
      format_campaign_stats(spec, CampaignOutcome{}, {});
  JsonValue root;
  ASSERT_NO_THROW(root = parse_json(body, "stats")) << body;
  const JsonValue* name = root.find("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->as_string("name"), spec.name);
}

TEST(CampaignStats, WriterRefusesNonRegularFiles) {
  std::string error;
  EXPECT_FALSE(obs::replace_file("/dev/null", "{}\n", /*sync=*/true, &error));
  EXPECT_NE(error.find("non-regular"), std::string::npos);
}

TEST(CampaignStats, WriterRoundTripsThroughRename) {
  const std::string path = testing::TempDir() + "/campaign_stats_rt.json";
  std::string error;
  ASSERT_TRUE(obs::replace_file(path, "{\"x\": 1}\n", /*sync=*/true, &error))
      << error;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[32] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buf, n), "{\"x\": 1}\n");
}

}  // namespace
}  // namespace satin::campaign
