#include "campaign/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include <unistd.h>

#include "campaign/spec.h"
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
