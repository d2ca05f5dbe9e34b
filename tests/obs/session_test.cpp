#include "obs/session.h"

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "obs/flight/audit.h"
#include "sim/engine.h"
#include "sim/parallel.h"

namespace satin::obs {
namespace {

// Builds a mutable argv; keeps the backing strings alive.
struct Argv {
  explicit Argv(std::vector<std::string> args) : strings(std::move(args)) {
    for (auto& s : strings) ptrs.push_back(s.data());
    ptrs.push_back(nullptr);
    argc = static_cast<int>(strings.size());
  }
  std::vector<std::string> strings;
  std::vector<char*> ptrs;
  int argc = 0;
};

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(ObsSessionTest, NoFlagsInstallsNothing) {
  Argv argv({"prog", "-v"});
  ObsSession session(argv.argc, argv.ptrs.data());
  EXPECT_FALSE(session.flight_enabled());
  EXPECT_FALSE(session.metrics_enabled());
  EXPECT_EQ(argv.argc, 2);
  EXPECT_EQ(flight(), nullptr);
  EXPECT_EQ(metrics(), nullptr);
}

TEST(ObsSessionTest, StripsFlagsAndWritesMetricsAndFlight) {
  const std::string metrics_path = testing::TempDir() + "session_strip.json";
  const std::string flight_path = testing::TempDir() + "session_strip.flt";
  Argv argv({"prog", "--metrics=" + metrics_path, "-v",
             "--flight=" + flight_path});
  {
    ObsSession session(argv.argc, argv.ptrs.data());
    EXPECT_TRUE(session.metrics_enabled());
    EXPECT_TRUE(session.flight_enabled());
    EXPECT_EQ(session.metrics_path(), metrics_path);
    EXPECT_EQ(session.flight_path(), flight_path);
    // The obs flags are gone; the program's own flags survive in order.
    ASSERT_EQ(argv.argc, 2);
    EXPECT_STREQ(argv.ptrs[0], "prog");
    EXPECT_STREQ(argv.ptrs[1], "-v");
    EXPECT_NE(flight(), nullptr);
    EXPECT_NE(metrics(), nullptr);
  }
  // Destructor flushed the files and uninstalled the globals.
  EXPECT_EQ(flight(), nullptr);
  EXPECT_EQ(metrics(), nullptr);
  EXPECT_NE(slurp(metrics_path).find("\"counters\""), std::string::npos);
  FlightReader reader;
  EXPECT_TRUE(reader.open(flight_path)) << reader.error();
  EXPECT_TRUE(reader.has_footer());
  std::remove(metrics_path.c_str());
  std::remove(flight_path.c_str());
}

// An output the session cannot open is named and left in argv, so the
// unconsumed-argument check fails the run before it simulates anything,
// and nothing is installed for it.
void expect_refused(const std::string& flag) {
  Argv argv({"prog", flag});
  testing::internal::CaptureStderr();
  ObsSession session(argv.argc, argv.ptrs.data());
  const std::string warning = testing::internal::GetCapturedStderr();
  EXPECT_NE(warning.find("cannot be opened for writing"), std::string::npos)
      << warning;
  EXPECT_FALSE(session.metrics_enabled()) << flag;
  EXPECT_FALSE(session.flight_enabled()) << flag;
  EXPECT_EQ(metrics(), nullptr) << flag;
  EXPECT_EQ(flight(), nullptr) << flag;
  ASSERT_EQ(argv.argc, 2) << flag;
  EXPECT_EQ(argv.ptrs[1], flag);
  testing::internal::CaptureStderr();
  EXPECT_TRUE(reject_unconsumed_args(argv.argc, argv.ptrs.data()));
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "prog: refused argument '" + flag + "'\n");
}

TEST(ObsSessionTest, UnwritableMetricsFileFailsTheRun) {
  expect_refused("--metrics=/nonexistent-dir-zzz/q.json");
  expect_refused("--metrics=" + testing::TempDir());  // a directory
  // A writable path is probed without leaving a file behind.
  const std::string path = testing::TempDir() + "session_probe.json";
  std::remove(path.c_str());
  Argv argv({"prog", "--metrics=" + path, "-x"});
  {
    ObsSession session(argv.argc, argv.ptrs.data());
    EXPECT_TRUE(session.metrics_enabled());
    std::FILE* probe = std::fopen(path.c_str(), "r");
    EXPECT_EQ(probe, nullptr);
    if (probe != nullptr) std::fclose(probe);
  }
  EXPECT_NE(slurp(path).find("\"counters\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsSessionTest, UnwritableFlightFileFailsTheRun) {
  expect_refused("--flight=/nonexistent-dir-zzz/q.flt");
  expect_refused("--flight=/nonexistent-dir-zzz/q.flt,ring=64");
}

TEST(ObsSessionTest, FlushWithEngineAddsSelfMetrics) {
  const std::string path = testing::TempDir() + "session_engine.json";
  Argv argv({"prog", "--metrics=" + path});
  sim::Engine engine;
  engine.schedule_at(sim::Time::from_ms(1), [] {});
  engine.run_all();
  ObsSession session(argv.argc, argv.ptrs.data());
  EXPECT_TRUE(session.flush(&engine));
  const std::string metrics_json = slurp(session.metrics_path());
  EXPECT_NE(metrics_json.find("engine.events_fired"), std::string::npos);
  EXPECT_NE(metrics_json.find("engine.wall_s_per_sim_s"), std::string::npos);
}

TEST(ObsSessionTest, FlightFlagRecordsEngineCommits) {
  const std::string path = testing::TempDir() + "session_flight.bin";
  Argv argv({"prog", "--flight=" + path, "-k"});
  sim::Engine engine;
  {
    ObsSession session(argv.argc, argv.ptrs.data());
    ASSERT_TRUE(session.flight_enabled());
    EXPECT_EQ(session.flight_path(), path);
    EXPECT_EQ(session.flight_recorder()->ring_capacity(), 0u);
    EXPECT_EQ(flight(), session.flight_recorder());
    ASSERT_EQ(argv.argc, 2);
    EXPECT_STREQ(argv.ptrs[1], "-k");
    for (int i = 1; i <= 5; ++i) {
      engine.schedule_at(sim::Time::from_ms(i), [] {});
    }
    engine.run_all();
    EXPECT_TRUE(session.flush(&engine));
  }
  EXPECT_EQ(flight(), nullptr);
  {
    FlightReader reader;
    ASSERT_TRUE(reader.open(path)) << reader.error();
    EXPECT_TRUE(reader.has_footer());
    EXPECT_EQ(reader.totals().commits, 5u);
    EXPECT_EQ(reader.records(), 5u);
    FlightRecord r;
    while (reader.next(r)) {
      EXPECT_EQ(r.kind, static_cast<std::uint16_t>(FlightKind::kDispatch));
    }
  }
  std::remove(path.c_str());
}

TEST(ObsSessionTest, FlightRingSpecParsed) {
  const std::string path = testing::TempDir() + "session_flight_ring.bin";
  Argv argv({"prog", "--flight=" + path + ",ring=128"});
  ObsSession session(argv.argc, argv.ptrs.data());
  EXPECT_TRUE(session.flight_enabled());
  EXPECT_EQ(session.flight_path(), path);
  EXPECT_EQ(session.flight_recorder()->ring_capacity(), 128u);
  EXPECT_TRUE(session.flight_recorder()->ring_mode());
  session.flush();
  std::remove(path.c_str());
  // strtoull alone would stop at the suffix and keep a 1-record ring. A
  // malformed ring records nothing and stays in argv for the
  // unconsumed-argument check, which fails the run.
  for (const std::string value : {"1k", "-5", "x"}) {
    const std::string flag = "--flight=" + path + ",ring=" + value;
    Argv bad({"prog", flag});
    testing::internal::CaptureStderr();
    ObsSession session_bad(bad.argc, bad.ptrs.data());
    const std::string warning = testing::internal::GetCapturedStderr();
    EXPECT_NE(warning.find("ring=" + value), std::string::npos) << warning;
    EXPECT_FALSE(session_bad.flight_enabled()) << value;
    EXPECT_EQ(flight(), nullptr) << value;
    ASSERT_EQ(bad.argc, 2) << value;
    EXPECT_EQ(bad.ptrs[1], flag);
    testing::internal::CaptureStderr();
    EXPECT_TRUE(reject_unconsumed_args(bad.argc, bad.ptrs.data()));
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "prog: refused argument '" + flag + "'\n");
  }
}

TEST(ObsSessionTest, MetricsStableDropsVolatileGauges) {
  const std::string with_wall = testing::TempDir() + "session_vol.json";
  const std::string stable = testing::TempDir() + "session_stable.json";
  sim::Engine engine;
  engine.schedule_at(sim::Time::from_ms(1), [] {});
  engine.run_all();
  {
    Argv argv({"prog", "--metrics=" + with_wall});
    ObsSession session(argv.argc, argv.ptrs.data());
    EXPECT_FALSE(session.metrics_stable());
    session.flush(&engine);
  }
  {
    Argv argv({"prog", "--metrics=" + stable, "--metrics-stable"});
    ObsSession session(argv.argc, argv.ptrs.data());
    EXPECT_TRUE(session.metrics_stable());
    EXPECT_EQ(argv.argc, 1);  // the bare switch is stripped too
    session.flush(&engine);
  }
  const std::string full_json = slurp(with_wall);
  const std::string stable_json = slurp(stable);
  EXPECT_NE(full_json.find("engine.wall_seconds"), std::string::npos);
  EXPECT_EQ(stable_json.find("engine.wall_seconds"), std::string::npos);
  EXPECT_EQ(stable_json.find("engine.pool_high_water"), std::string::npos);
  EXPECT_NE(stable_json.find("engine.events_fired"), std::string::npos);
  std::remove(with_wall.c_str());
  std::remove(stable.c_str());
}

TEST(ObsSessionTest, MalformedJobsIsLeftForTheUnconsumedArgumentCheck) {
  // A program that reads --jobs takes it itself, as the benches do.
  auto take_jobs = [](Argv& argv) {
    return sim::TrialRunner::jobs_from_flag(
        take_whole_number(argv.argc, argv.ptrs.data(), "jobs", 0, INT_MAX),
        /*fallback=*/5);
  };
  {
    Argv argv({"prog", "--jobs=3", "-x"});
    ObsSession session(argv.argc, argv.ptrs.data());
    EXPECT_EQ(take_jobs(argv), 3);
    ASSERT_EQ(argv.argc, 2);
    Argv zero({"prog", "--jobs=0"});
    EXPECT_EQ(take_jobs(zero), sim::TrialRunner::hardware_jobs());
    Argv absent({"prog"});
    EXPECT_EQ(take_jobs(absent), 5);
  }
  // std::atoi would read these as 0 or 4, and --jobs=0 means one worker
  // per hardware thread. Each is reported and left in argv, so the
  // unconsumed-argument check names it and the program exits 2 instead of
  // running with the fallback.
  for (const std::string value : {"four", "4x", "-2", " 4", ""}) {
    const std::string flag = "--jobs=" + value;
    Argv argv({"prog", flag});
    ObsSession session(argv.argc, argv.ptrs.data());
    testing::internal::CaptureStderr();
    EXPECT_EQ(take_jobs(argv), 5) << value;
    const std::string warning = testing::internal::GetCapturedStderr();
    EXPECT_NE(warning.find(flag), std::string::npos) << warning;
    ASSERT_EQ(argv.argc, 2) << value;
    EXPECT_EQ(argv.ptrs[1], flag);
    testing::internal::CaptureStderr();
    EXPECT_TRUE(reject_unconsumed_args(argv.argc, argv.ptrs.data()));
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "prog: refused argument '" + flag + "'\n");
  }
}

TEST(ObsSessionTest, TakeFlagKeepsTheLastValueAndLeavesMalformedOnes) {
  Argv argv({"prog", "--n=1", "-x", "--n=two", "--n=3", "--nn=4"});
  testing::internal::CaptureStderr();
  EXPECT_EQ(take_whole_number(argv.argc, argv.ptrs.data(), "n", 1, 5), 3u);
  const std::string warning = testing::internal::GetCapturedStderr();
  EXPECT_EQ(warning, "prog: --n=two: want a whole number in [1, 5]\n");
  ASSERT_EQ(argv.argc, 4);
  EXPECT_STREQ(argv.ptrs[1], "-x");
  EXPECT_STREQ(argv.ptrs[2], "--n=two");
  EXPECT_STREQ(argv.ptrs[3], "--nn=4");
  EXPECT_EQ(argv.ptrs[4], nullptr);
  EXPECT_EQ(take_whole_number(argv.argc, argv.ptrs.data(), "m", 0, 9),
            std::nullopt);
  // Without a predicate every value is taken, the last one winning.
  EXPECT_EQ(take_flag(argv.argc, argv.ptrs.data(), "n"), "two");
  EXPECT_EQ(take_flag(argv.argc, argv.ptrs.data(), "nn",
                      [](const std::string& v) { return v != "4"; }),
            "4");
  ASSERT_EQ(argv.argc, 2);
  EXPECT_STREQ(argv.ptrs[1], "-x");
  EXPECT_EQ(take_flag(argv.argc, argv.ptrs.data(), "n"), "");
}

TEST(ObsSessionTest, RetiredAndUnknownFlagsAreLeftForTheCaller) {
  // --batch and --fused belonged to the retired lockstep runner: the
  // session no longer consumes them, so the unconsumed-argument check
  // names them.
  // --trace belonged to the retired trace recorder; --flight= records
  // every event it did.
  // --jobs and --faults are the program's own flags: one that does not
  // read them names them too.
  for (const std::string flag :
       {"--batch=8", "--fused=off", "--trace=t.json", "--bogus", "--jobs=2",
        "--faults=seed=1,bitflip@0s+1s:p=1"}) {
    Argv argv({"/path/to/bench", "--metrics-stable", flag});
    ObsSession session(argv.argc, argv.ptrs.data());
    EXPECT_TRUE(session.metrics_stable()) << flag;
    ASSERT_EQ(argv.argc, 2) << flag;
    testing::internal::CaptureStderr();
    EXPECT_TRUE(reject_unconsumed_args(argv.argc, argv.ptrs.data()));
    const std::string error = testing::internal::GetCapturedStderr();
    EXPECT_EQ(error, "bench: unrecognized argument '" + flag + "'\n");
  }
}

TEST(ObsSessionTest, ARefusedValueIsNamedAsRefused) {
  // --n=0 matched the flag, whose range refused the value; --m=1 matched
  // no flag at all. Each is named as what it is, in argv order.
  Argv argv({"/path/to/prog", "--n=0", "--m=1"});
  testing::internal::CaptureStderr();
  EXPECT_EQ(take_whole_number(argv.argc, argv.ptrs.data(), "n", 1, 9),
            std::nullopt);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "prog: --n=0: want a whole number in [1, 9]\n");
  ASSERT_EQ(argv.argc, 3);
  testing::internal::CaptureStderr();
  EXPECT_TRUE(reject_unconsumed_args(argv.argc, argv.ptrs.data()));
  EXPECT_TRUE(reject_unconsumed_args(argv.argc, argv.ptrs.data(), 2));
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "prog: refused argument '--n=0'\n"
            "prog: unrecognized argument '--m=1'\n");
}

TEST(ObsSessionTest, UnconsumedArgumentCheckStartsAtFirst) {
  Argv bare({"prog"});
  testing::internal::CaptureStderr();
  EXPECT_FALSE(reject_unconsumed_args(bare.argc, bare.ptrs.data()));
  // A switch the caller read itself is skipped by passing `first`.
  Argv verbose({"prog", "-v"});
  EXPECT_FALSE(reject_unconsumed_args(verbose.argc, verbose.ptrs.data(), 2));
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  // The first leftover is named, not a later one.
  Argv extra({"prog", "-v", "-x", "-y"});
  testing::internal::CaptureStderr();
  EXPECT_TRUE(reject_unconsumed_args(extra.argc, extra.ptrs.data(), 2));
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "prog: unrecognized argument '-x'\n");
}

TEST(ObsSessionTest, WholeNumbersAreDigitsOnlyAndInRange) {
  EXPECT_EQ(parse_whole_number("400", 1, 1000), 400u);
  EXPECT_EQ(parse_whole_number("0", 0, 5), 0u);
  EXPECT_EQ(parse_whole_number("18446744073709551615", 1, UINT64_MAX),
            UINT64_MAX);
  // strtoull alone would read "2x" and " 2" as 2, "+4" as 4 and "-1" as
  // 2^64 - 1, and atoi "abc" and "" as 0. "0" is below the minimum and
  // the last one overflows.
  for (const std::string text :
       {"2x", "abc", " 2", "+4", "-1", "", "0", "18446744073709551616"}) {
    EXPECT_FALSE(parse_whole_number(text, 1, UINT64_MAX)) << text;
  }
  EXPECT_FALSE(parse_whole_number("6", 1, 5));
}

TEST(ObsSessionTest, MetricsOnlyRunRecordsNoFlight) {
  const std::string path = testing::TempDir() + "session_only.metrics.json";
  Argv argv({"prog", "--metrics=" + path});
  {
    ObsSession session(argv.argc, argv.ptrs.data());
    EXPECT_FALSE(session.flight_enabled());
    EXPECT_EQ(flight(), nullptr);
    EXPECT_TRUE(session.metrics_enabled());
  }
  EXPECT_NE(slurp(path).find("\"gauges\""), std::string::npos);
}

}  // namespace
}  // namespace satin::obs
