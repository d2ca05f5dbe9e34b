#include "campaign/spec.h"

#include <gtest/gtest.h>

#include <string>

#include "campaign/json.h"

namespace satin::campaign {
namespace {

// Expects parse failure and returns the diagnostic, which must carry the
// source label (positions are asserted by the caller where they matter).
std::string parse_error(const std::string& text) {
  try {
    parse_campaign_spec(text, "spec.json");
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("spec.json"), std::string::npos);
    return e.what();
  }
  ADD_FAILURE() << "expected JsonError for: " << text;
  return "";
}

TEST(CampaignSpec, MinimalSpecGetsDefaults) {
  const CampaignSpec spec =
      parse_campaign_spec(R"({"trials": 4})", "spec.json");
  EXPECT_EQ(spec.trials, 4u);
  EXPECT_EQ(spec.name, "campaign");
  EXPECT_EQ(spec.jobs, 1);
  EXPECT_EQ(spec.batch, 1);
  EXPECT_EQ(spec.max_retries, 2);
  EXPECT_TRUE(spec.faults.empty());
  EXPECT_FALSE(spec.pin_first_platform_seed);
}

TEST(CampaignSpec, FullSpecRoundTripsEveryKnob) {
  const CampaignSpec spec = parse_campaign_spec(R"({
    "name": "storm",
    "trials": 16,
    "root_seed": 99,
    "jobs": 4,
    "batch": 8,
    "trial_timeout_s": 33.5,
    "max_retries": 5,
    "platform": {"num_little": 4, "num_big": 2, "seed": 7},
    "satin": {"tgoal_s": 12.0, "randomize_wake": true},
    "duel": {"rounds_target": 10},
    "attacker": {"rearm_delay_s": 0.02},
    "faults": "seed=9,bitflip@10s+60s:p=0.12",
    "faults_reseed": true
  })",
                                                "spec.json");
  EXPECT_EQ(spec.name, "storm");
  EXPECT_EQ(spec.trials, 16u);
  EXPECT_EQ(spec.root_seed, 99u);
  EXPECT_EQ(spec.jobs, 4);
  EXPECT_EQ(spec.batch, 8);
  EXPECT_DOUBLE_EQ(spec.trial_timeout_s, 33.5);
  EXPECT_EQ(spec.max_retries, 5);
  EXPECT_TRUE(spec.pin_first_platform_seed);
  EXPECT_EQ(spec.duel.rounds_target, 10u);
  EXPECT_EQ(spec.faults, "seed=9,bitflip@10s+60s:p=0.12");
  EXPECT_TRUE(spec.faults_reseed);
}

TEST(CampaignSpec, MissingTrialsIsAnError) {
  EXPECT_NE(parse_error(R"({"name": "x"})").find("trials"),
            std::string::npos);
}

TEST(CampaignSpec, ZeroTrialsIsAnError) {
  parse_error(R"({"trials": 0})");
}

TEST(CampaignSpec, UnknownTopLevelKeyNamesTheKeyWithPosition) {
  const std::string what = parse_error("{\"trials\": 1,\n \"trails\": 2}");
  EXPECT_NE(what.find("trails"), std::string::npos);
  // The typo is on line 2.
  EXPECT_NE(what.find("spec.json:2"), std::string::npos);
  // Keys of the retired fork and lockstep shard backends, and the retired
  // dispatch batch size (a worker runs one trial at a time), are unknown
  // keys now: a spec that still sets them fails at parse time instead of
  // silently running on the worker pool.
  for (const std::string key :
       {"branches", "fork_prefix", "shard", "shard_size"}) {
    const std::string stale =
        parse_error("{\"trials\": 1,\n\n \"" + key + "\": 0}");
    EXPECT_NE(stale.find("\"" + key + "\""), std::string::npos) << stale;
    EXPECT_NE(stale.find("spec.json:3"), std::string::npos) << stale;
  }
}

TEST(CampaignSpec, UnknownNestedKeyIsAnError) {
  const std::string what =
      parse_error(R"({"trials": 1, "satin": {"tgaol_s": 57.0}})");
  EXPECT_NE(what.find("tgaol_s"), std::string::npos);
}

TEST(CampaignSpec, TypeMismatchIsPositioned) {
  const std::string what = parse_error("{\"trials\": \"six\"}");
  EXPECT_NE(what.find(":1:"), std::string::npos);
}

TEST(CampaignSpec, SyntaxErrorIsPositioned) {
  const std::string what = parse_error("{\"trials\": 1,\n}");
  EXPECT_NE(what.find("spec.json:2"), std::string::npos);
}

TEST(CampaignSpec, BadFaultPlanFailsAtSpecParseTime) {
  const std::string what = parse_error(
      R"({"trials": 1, "faults": "frobnicate@1s+2s"})");
  EXPECT_NE(what.find("frobnicate"), std::string::npos);
}

TEST(CampaignSpec, FaultsReseedWithoutFaultsIsAnError) {
  parse_error(R"({"trials": 1, "faults_reseed": true})");
}

TEST(CampaignSpec, OutOfRangeJobsIsAnError) {
  parse_error(R"({"trials": 1, "jobs": 0})");
  parse_error(R"({"trials": 1, "jobs": 1000})");
}

TEST(CampaignSpec, OutOfRangeBatchIsAnError) {
  EXPECT_NE(parse_error(R"({"trials": 1, "batch": 0})").find("batch"),
            std::string::npos);
  parse_error(R"({"trials": 1, "batch": -4})");
  parse_error(R"({"trials": 1, "batch": 5000})");
  parse_error(R"({"trials": 1, "batch": "eight"})");
}

TEST(CampaignSpec, IntegerLiteralsConvertExactly) {
  const auto seed = [](const std::string& literal) {
    return parse_campaign_spec(
               R"({"trials": 1, "root_seed": )" + literal + "}", "spec.json")
        .root_seed;
  };
  // A double holds neither 2^53 + 1 nor INT64_MAX: the first would round
  // to 2^53, the second to 2^63.
  EXPECT_EQ(seed("9007199254740993"), 9007199254740993u);
  EXPECT_EQ(seed("9223372036854775807"), 9223372036854775807u);
  EXPECT_EQ(seed("18446744073709551615"), 18446744073709551615u);
  // A fraction or an exponent still reads when the value is an integer.
  EXPECT_EQ(seed("8.0"), 8u);
  EXPECT_EQ(seed("2e3"), 2000u);
  parse_error(R"({"trials": 1, "root_seed": 8.5})");
  parse_error(R"({"trials": 1, "root_seed": -1})");
}

TEST(CampaignSpec, OutOfRangeIntegerLiteralIsPositioned) {
  const std::string seed =
      parse_error("{\"trials\": 1,\n \"root_seed\": 18446744073709551616}");
  EXPECT_NE(seed.find("spec.json:2:"), std::string::npos) << seed;
  EXPECT_NE(seed.find("root_seed: 18446744073709551616 is out of range"),
            std::string::npos)
      << seed;
  const std::string jobs =
      parse_error("{\"trials\": 1,\n\n \"jobs\": 9223372036854775808}");
  EXPECT_NE(jobs.find("spec.json:3:"), std::string::npos) << jobs;
  EXPECT_NE(jobs.find("jobs: 9223372036854775808 is out of range"),
            std::string::npos)
      << jobs;
}

TEST(CampaignSpec, ContentHashCoversResultShapingFields) {
  const CampaignSpec a = parse_campaign_spec(R"({"trials": 4})", "a");
  CampaignSpec b = a;
  EXPECT_EQ(a.content_hash(), b.content_hash());
  b.trials = 5;
  EXPECT_NE(a.content_hash(), b.content_hash());
  b = a;
  b.root_seed ^= 1;
  EXPECT_NE(a.content_hash(), b.content_hash());
  b = a;
  b.faults = "bitflip@1s+2s";
  EXPECT_NE(a.content_hash(), b.content_hash());
}

TEST(CampaignSpec, ContentHashIgnoresRuntimeKnobs) {
  const CampaignSpec a = parse_campaign_spec(R"({"trials": 4})", "a");
  CampaignSpec b = a;
  b.jobs = 16;
  b.batch = 8;
  b.trial_timeout_s = 1.0;
  b.max_retries = 9;
  // A resume may override all of these without invalidating the journal.
  EXPECT_EQ(a.content_hash(), b.content_hash());
}

}  // namespace
}  // namespace satin::campaign
