#include "campaign/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>

#include <unistd.h>

#include "campaign/spec.h"
#include "campaign/supervisor.h"
#include "campaign/trial.h"

namespace satin::campaign {
namespace {

TrialResult sample_result(std::uint64_t index) {
  TrialResult r;
  r.index = index;
  r.seed = 0x2bb4fdf6c4a3ec89ull ^ index;
  r.report.rounds = 14 + index;
  r.report.alarms = 3;
  r.report.target_area = 7;
  r.report.target_area_rounds = 2;
  r.report.target_area_alarms = 2;
  r.report.avg_target_gap_s = 141.25;
  r.report.secure_stays = 14;
  r.report.prober_detections = 15;
  r.report.evasions_started = 13;
  r.report.rearms = 12;
  r.report.sim_seconds = 0.1 + 0.2;  // a value decimal text would mangle
  r.report.confirmed_alarms = 1;
  r.report.transient_alarms = 2;
  r.report.watchdog_fires = 1;
  r.report.scan_retries = 4;
  r.faults_injected = 9;
  return r;
}

TEST(TrialRecord, EncodeDecodeRoundTripsEveryFieldBitExactly) {
  const TrialResult in = sample_result(3);
  TrialResult out;
  ASSERT_TRUE(decode_trial_record(encode_trial_record(in), out));
  EXPECT_EQ(out.index, in.index);
  EXPECT_EQ(out.seed, in.seed);
  EXPECT_EQ(out.report.rounds, in.report.rounds);
  EXPECT_EQ(out.report.alarms, in.report.alarms);
  EXPECT_EQ(out.report.target_area, in.report.target_area);
  EXPECT_EQ(out.report.target_area_alarms, in.report.target_area_alarms);
  EXPECT_EQ(out.report.scan_retries, in.report.scan_retries);
  EXPECT_EQ(out.faults_injected, in.faults_injected);
  // Doubles travel as raw bits: exact equality, not approximate.
  EXPECT_EQ(out.report.avg_target_gap_s, in.report.avg_target_gap_s);
  EXPECT_EQ(out.report.sim_seconds, in.report.sim_seconds);
  // And the re-encoding is byte-identical (resume == original).
  EXPECT_EQ(encode_trial_record(out), encode_trial_record(in));
}

TEST(TrialRecord, DecodeRejectsDamage) {
  const std::string line = encode_trial_record(sample_result(0));
  TrialResult out;
  std::string why;
  // Flipped payload byte: checksum catches it.
  std::string bad = line;
  bad[10] = bad[10] == '0' ? '1' : '0';
  EXPECT_FALSE(decode_trial_record(bad, out, &why));
  EXPECT_FALSE(why.empty());
  // Truncation (torn write).
  EXPECT_FALSE(decode_trial_record(line.substr(0, line.size() / 2), out));
  // Bad prefix.
  EXPECT_FALSE(decode_trial_record("X" + line.substr(1), out));
  // Empty.
  EXPECT_FALSE(decode_trial_record("", out));
  // The intact line still decodes after all that.
  EXPECT_TRUE(decode_trial_record(line, out));
}

// Two fixed trials whose fields all differ from their neighbours', so a
// swapped, dropped or re-formatted field changes the golden bytes below:
// sample_result(3), and a trial with a negative target area, a zero gap
// (left out of the gap mean) and nonzero false positives, false negatives
// and benign alarms.
std::map<std::uint64_t, TrialResult> golden_results() {
  TrialResult b;
  b.index = 5;
  b.seed = 0x9e3779b97f4a7c15ull;
  b.report.rounds = 101;
  b.report.alarms = 29;
  b.report.full_cycles = 6;
  b.report.target_area = -1;
  b.report.target_area_rounds = 11;
  b.report.target_area_alarms = 10;
  b.report.secure_stays = 31;
  b.report.prober_detections = 33;
  b.report.false_positives = 2;
  b.report.false_negatives = 3;
  b.report.evasions_started = 23;
  b.report.rearms = 19;
  b.report.sim_seconds = 12.5;
  b.report.confirmed_alarms = 8;
  b.report.transient_alarms = 5;
  b.report.benign_confirmed_alarms = 1;
  b.report.watchdog_fires = 4;
  b.report.scan_retries = 17;
  b.faults_injected = 41;
  return {{3, sample_result(3)}, {5, b}};
}

// The journal's record bytes, pinned: a resume reads records an older
// build wrote, so the layout is a persisted format, not an implementation
// detail. Each golden line also decodes to a trial that encodes back to
// it, so the decoder reads every field the encoder writes.
TEST(TrialRecord, EncodesTheGoldenLines) {
  const std::map<std::uint64_t, TrialResult> results = golden_results();
  const std::map<std::uint64_t, std::string> golden = {
      {3, "R i=3 seed=2bb4fdf6c4a3ec8a rounds=17 alarms=3 cycles=0 area=7 "
          "tar=2 taa=2 gap=4061a80000000000 stays=14 det=15 fp=0 fn=0 "
          "ev=13 rearms=12 sims=3fd3333333333334 conf=1 trans=2 benign=0 "
          "wdog=1 sretry=4 inj=9 crc=3db723fec6e5524a"},
      {5, "R i=5 seed=9e3779b97f4a7c15 rounds=101 alarms=29 cycles=6 "
          "area=-1 tar=11 taa=10 gap=0000000000000000 stays=31 det=33 "
          "fp=2 fn=3 ev=23 rearms=19 sims=4029000000000000 conf=8 trans=5 "
          "benign=1 wdog=4 sretry=17 inj=41 crc=3234a7b6f5d2b0c5"}};
  for (const auto& [index, line] : golden) {
    EXPECT_EQ(encode_trial_record(results.at(index)), line);
    TrialResult decoded;
    ASSERT_TRUE(decode_trial_record(line, decoded)) << line;
    EXPECT_EQ(encode_trial_record(decoded), line);
  }
}

// The stats file's bytes, pinned: CI's crash audit compares them across
// schedules, and tools read them as JSON.
TEST(CampaignStats, FormatsTheGoldenBody) {
  const CampaignSpec spec = parse_campaign_spec(
      R"({"name": "golden", "trials": 8, "root_seed": 42})", "golden");
  CampaignOutcome outcome;
  outcome.degraded = true;
  outcome.failed_trials = {1, 6};
  EXPECT_EQ(format_campaign_stats(spec, outcome, golden_results()),
            R"json({
  "schema": "satin-campaign-stats/1",
  "name": "golden",
  "spec_hash": "8cb220680a708ffa",
  "trials": 8,
  "root_seed": 42,
  "completed": 2,
  "degraded": true,
  "failed_trials": [1, 6],
  "aggregate": {
    "rounds": 118,
    "alarms": 32,
    "full_cycles": 6,
    "target_area_rounds": 13,
    "target_area_alarms": 12,
    "secure_stays": 45,
    "prober_detections": 48,
    "false_positives": 2,
    "false_negatives": 3,
    "evasions_started": 36,
    "rearms": 31,
    "confirmed_alarms": 9,
    "transient_alarms": 7,
    "benign_confirmed_alarms": 1,
    "watchdog_fires": 5,
    "scan_retries": 21,
    "faults_injected": 50,
    "always_caught_trials": 1,
    "sim_seconds_total": 12.800000000000001,
    "avg_target_gap_s_mean": 141.25
  },
  "per_trial": [
    {"i": 3, "seed": "2bb4fdf6c4a3ec8a", "rounds": 17, "taa": 2, "tar": 2, "conf": 1, "trans": 2, "inj": 9, "sim_s": 0.30000000000000004},
    {"i": 5, "seed": "9e3779b97f4a7c15", "rounds": 101, "taa": 10, "tar": 11, "conf": 8, "trans": 5, "inj": 41, "sim_s": 12.5}
  ]
}
)json");
}

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The pid keeps concurrently running test processes apart: under a
    // sanitizer's deterministic heap two of them can share `this`.
    path_ = testing::TempDir() + "/journal_test_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".journal";
    std::remove(path_.c_str());
    spec_ = parse_campaign_spec(R"({"trials": 8, "root_seed": 42})", "t");
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  CampaignSpec spec_;
};

TEST_F(JournalTest, AppendThenReopenReplaysCompletedTrials) {
  std::string error;
  {
    CampaignJournal journal;
    ASSERT_TRUE(journal.open(path_, spec_, &error)) << error;
    ASSERT_TRUE(journal.append(sample_result(0)));
    ASSERT_TRUE(journal.append(sample_result(5)));
    EXPECT_EQ(journal.appended(), 2u);
  }
  CampaignJournal journal;
  ASSERT_TRUE(journal.open(path_, spec_, &error)) << error;
  EXPECT_EQ(journal.appended(), 0u);
  EXPECT_EQ(journal.quarantined(), 0u);
  ASSERT_EQ(journal.completed().size(), 2u);
  EXPECT_EQ(journal.completed().count(0), 1u);
  EXPECT_EQ(journal.completed().count(5), 1u);
  EXPECT_EQ(journal.completed().at(5).report.rounds, 14u + 5u);
}

TEST_F(JournalTest, CorruptRecordIsQuarantinedOthersSurvive) {
  std::string error;
  {
    CampaignJournal journal;
    ASSERT_TRUE(journal.open(path_, spec_, &error)) << error;
    ASSERT_TRUE(journal.append(sample_result(1)));
    ASSERT_TRUE(journal.append(sample_result(2)));
  }
  // Flip one byte in the middle of record 1 (file line 2).
  std::FILE* f = std::fopen(path_.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 70, SEEK_SET);
  std::fputc('Z', f);
  std::fclose(f);

  CampaignJournal journal;
  ASSERT_TRUE(journal.open(path_, spec_, &error)) << error;
  EXPECT_EQ(journal.quarantined(), 1u);
  EXPECT_EQ(journal.completed().size(), 1u);
  EXPECT_EQ(journal.completed().count(2), 1u);
}

TEST_F(JournalTest, TornTailIsQuarantinedNotFatal) {
  std::string error;
  {
    CampaignJournal journal;
    ASSERT_TRUE(journal.open(path_, spec_, &error)) << error;
    ASSERT_TRUE(journal.append(sample_result(1)));
    ASSERT_TRUE(journal.append(sample_result(2)));
  }
  // Chop the final newline plus some bytes: the classic SIGKILL artifact.
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(::truncate(path_.c_str(), size - 9), 0);

  CampaignJournal journal;
  ASSERT_TRUE(journal.open(path_, spec_, &error)) << error;
  EXPECT_EQ(journal.quarantined(), 1u);
  EXPECT_EQ(journal.completed().size(), 1u);
  EXPECT_EQ(journal.completed().count(1), 1u);

  // The journal still appends cleanly after the torn tail... which means
  // the torn fragment must not glue onto the next record.
  ASSERT_TRUE(journal.append(sample_result(2)));
  CampaignJournal reopened;
  ASSERT_TRUE(reopened.open(path_, spec_, &error)) << error;
  EXPECT_EQ(reopened.completed().size(), 2u);
}

TEST_F(JournalTest, HeaderMismatchIsAHardError) {
  std::string error;
  {
    CampaignJournal journal;
    ASSERT_TRUE(journal.open(path_, spec_, &error)) << error;
    ASSERT_TRUE(journal.append(sample_result(0)));
  }
  CampaignSpec other = spec_;
  other.root_seed += 1;
  CampaignJournal journal;
  EXPECT_FALSE(journal.open(path_, other, &error));
  EXPECT_NE(error.find("different campaign"), std::string::npos);
}

TEST_F(JournalTest, RuntimeKnobChangesDoNotInvalidateTheJournal) {
  std::string error;
  {
    CampaignJournal journal;
    ASSERT_TRUE(journal.open(path_, spec_, &error)) << error;
  }
  CampaignSpec tweaked = spec_;
  tweaked.jobs = 16;
  tweaked.trial_timeout_s = 1.0;
  CampaignJournal journal;
  EXPECT_TRUE(journal.open(path_, tweaked, &error)) << error;
}

TEST_F(JournalTest, OutOfRangeIndexIsQuarantined) {
  std::string error;
  {
    CampaignJournal journal;
    ASSERT_TRUE(journal.open(path_, spec_, &error)) << error;
    ASSERT_TRUE(journal.append(sample_result(7)));
    // Record for a trial the spec doesn't have (trials=8, index 12).
    ASSERT_TRUE(journal.append(sample_result(12)));
  }
  CampaignJournal journal;
  ASSERT_TRUE(journal.open(path_, spec_, &error)) << error;
  EXPECT_EQ(journal.quarantined(), 1u);
  EXPECT_EQ(journal.completed().size(), 1u);
}

TEST_F(JournalTest, OpenAndReadStatusAgreeOnEveryKindOfDamage) {
  std::string error;
  {
    CampaignJournal journal;
    ASSERT_TRUE(journal.open(path_, spec_, &error)) << error;
    ASSERT_TRUE(journal.append(sample_result(1)));   // checksum fails below
    ASSERT_TRUE(journal.append(sample_result(12)));  // trials=8: out of range
    ASSERT_TRUE(journal.append(sample_result(2)));
    ASSERT_TRUE(journal.append(sample_result(3)));   // torn below
  }
  std::FILE* f = std::fopen(path_.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 70, SEEK_SET);  // inside record 1 (file line 2)
  std::fputc('Z', f);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(::truncate(path_.c_str(), size - 9), 0);

  // Status first: open() also trims the torn tail off the file.
  CampaignJournal::Status status;
  ASSERT_TRUE(CampaignJournal::read_status(path_, status, &error)) << error;
  CampaignJournal journal;
  ASSERT_TRUE(journal.open(path_, spec_, &error)) << error;
  EXPECT_EQ(status.quarantined, 3u);
  EXPECT_EQ(journal.quarantined(), status.quarantined);
  EXPECT_EQ(status.completed, 1u);
  EXPECT_EQ(journal.completed().size(), status.completed);
  EXPECT_EQ(journal.completed().count(2), 1u);
}

TEST_F(JournalTest, HeaderWithTrailingBytesIsMalformedEverywhere) {
  std::string error;
  {
    CampaignJournal journal;
    ASSERT_TRUE(journal.open(path_, spec_, &error)) << error;
    ASSERT_TRUE(journal.append(sample_result(0)));
  }
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  // The header's fields still parse, and name this very spec.
  text.insert(text.find('\n'), " x");
  f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
  std::fclose(f);

  CampaignJournal::Status status;
  EXPECT_FALSE(CampaignJournal::read_status(path_, status, &error));
  EXPECT_NE(error.find("corrupt journal header"), std::string::npos) << error;
  error.clear();
  CampaignJournal journal;
  EXPECT_FALSE(journal.open(path_, spec_, &error));
  EXPECT_NE(error.find("corrupt journal header"), std::string::npos) << error;
}

TEST_F(JournalTest, ReadStatusCountsDistinctCompletedTrials) {
  std::string error;
  {
    CampaignJournal journal;
    ASSERT_TRUE(journal.open(path_, spec_, &error)) << error;
    ASSERT_TRUE(journal.append(sample_result(0)));
    ASSERT_TRUE(journal.append(sample_result(3)));
    // Duplicate (orphan worker racing a resume): counted once.
    ASSERT_TRUE(journal.append(sample_result(3)));
  }
  CampaignJournal::Status status;
  ASSERT_TRUE(CampaignJournal::read_status(path_, status, &error)) << error;
  EXPECT_EQ(status.trials, 8u);
  EXPECT_EQ(status.root_seed, 42u);
  EXPECT_EQ(status.completed, 2u);
  EXPECT_EQ(status.quarantined, 0u);
}

TEST_F(JournalTest, ReadStatusRejectsMissingAndEmptyJournals) {
  CampaignJournal::Status status;
  std::string error;
  EXPECT_FALSE(CampaignJournal::read_status(path_ + ".nope", status, &error));
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  std::fclose(f);
  EXPECT_FALSE(CampaignJournal::read_status(path_, status, &error));
}

}  // namespace
}  // namespace satin::campaign
