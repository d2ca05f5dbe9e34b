#include "obs/session.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "obs/flight/audit.h"
#include "sim/engine.h"

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
  EXPECT_FALSE(session.trace_enabled());
  EXPECT_FALSE(session.metrics_enabled());
  EXPECT_EQ(argv.argc, 2);
  EXPECT_EQ(tracer(), nullptr);
  EXPECT_EQ(metrics(), nullptr);
}

TEST(ObsSessionTest, StripsFlagsAndDerivesMetricsPath) {
  const std::string trace = testing::TempDir() + "session_strip.trace.json";
  Argv argv({"prog", "--trace=" + trace, "-v"});
  {
    ObsSession session(argv.argc, argv.ptrs.data());
    EXPECT_TRUE(session.trace_enabled());
    EXPECT_TRUE(session.metrics_enabled());
    EXPECT_EQ(session.trace_path(), trace);
    EXPECT_EQ(session.metrics_path(), trace + ".metrics.json");
    // The obs flags are gone; the program's own flags survive in order.
    ASSERT_EQ(argv.argc, 2);
    EXPECT_STREQ(argv.ptrs[0], "prog");
    EXPECT_STREQ(argv.ptrs[1], "-v");
    EXPECT_NE(tracer(), nullptr);
    EXPECT_NE(metrics(), nullptr);
  }
  // Destructor flushed the files and uninstalled the globals.
  EXPECT_EQ(tracer(), nullptr);
  EXPECT_EQ(metrics(), nullptr);
  EXPECT_NE(slurp(trace).find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(slurp(trace + ".metrics.json").find("\"counters\""),
            std::string::npos);
}

TEST(ObsSessionTest, FlushWithEngineAddsSelfMetrics) {
  const std::string trace = testing::TempDir() + "session_engine.trace.json";
  Argv argv({"prog", "--trace=" + trace});
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
#if SATIN_OBS_ENABLED
    ASSERT_TRUE(session.flight_enabled());
    EXPECT_EQ(session.flight_path(), path);
    EXPECT_EQ(session.flight_ring(), 0u);
    EXPECT_EQ(flight(), session.flight_recorder());
#endif
    ASSERT_EQ(argv.argc, 2);
    EXPECT_STREQ(argv.ptrs[1], "-k");
    for (int i = 1; i <= 5; ++i) {
      engine.schedule_at(sim::Time::from_ms(i), [] {});
    }
    engine.run_all();
    EXPECT_TRUE(session.flush(&engine));
  }
  EXPECT_EQ(flight(), nullptr);
#if SATIN_OBS_ENABLED
  {
    FlightLog log;
    ASSERT_TRUE(read_flight_log(path, log));
    EXPECT_TRUE(log.has_footer);
    EXPECT_EQ(log.commits, 5u);
    for (const FlightRecord& r : log.records) {
      EXPECT_EQ(r.kind, static_cast<std::uint16_t>(FlightKind::kDispatch));
    }
  }
#endif
  std::remove(path.c_str());
}

TEST(ObsSessionTest, FlightRingSpecParsed) {
  const std::string path = testing::TempDir() + "session_flight_ring.bin";
  Argv argv({"prog", "--flight=" + path + ",ring=128"});
  ObsSession session(argv.argc, argv.ptrs.data());
#if SATIN_OBS_ENABLED
  EXPECT_TRUE(session.flight_enabled());
  EXPECT_EQ(session.flight_path(), path);
  EXPECT_EQ(session.flight_ring(), 128u);
  EXPECT_TRUE(session.flight_recorder()->ring_mode());
#endif
  session.flush();
  std::remove(path.c_str());
  // strtoull alone would stop at the suffix and keep a 1-record ring.
  for (const std::string value : {"1k", "-5", "x"}) {
    Argv bad({"prog", "--flight=" + path + ",ring=" + value});
    testing::internal::CaptureStderr();
    ObsSession spill(bad.argc, bad.ptrs.data());
    const std::string warning = testing::internal::GetCapturedStderr();
    EXPECT_EQ(spill.flight_ring(), 0u) << value;
    EXPECT_NE(warning.find("ring=" + value), std::string::npos) << warning;
#if SATIN_OBS_ENABLED
    EXPECT_EQ(spill.flight_path(), path);
    EXPECT_FALSE(spill.flight_recorder()->ring_mode()) << value;
#endif
    spill.flush();
    std::remove(path.c_str());
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

TEST(ObsSessionTest, BatchFlagParsedAndStripped) {
  {
    Argv argv({"prog", "--batch=8", "-x"});
    ObsSession session(argv.argc, argv.ptrs.data());
    EXPECT_TRUE(session.batch_requested());
    EXPECT_EQ(session.batch(), 8);
    EXPECT_EQ(session.batch(3), 8);
    // The flag is stripped; nothing else is installed for it.
    ASSERT_EQ(argv.argc, 2);
    EXPECT_STREQ(argv.ptrs[1], "-x");
    EXPECT_FALSE(session.trace_enabled());
    EXPECT_FALSE(session.metrics_enabled());
  }
  {
    Argv argv({"prog"});
    ObsSession session(argv.argc, argv.ptrs.data());
    EXPECT_FALSE(session.batch_requested());
    EXPECT_EQ(session.batch(), 1);
    EXPECT_EQ(session.batch(4), 4);
  }
  {
    // Nonsense values behave as if the flag were absent.
    Argv argv({"prog", "--batch=0"});
    ObsSession session(argv.argc, argv.ptrs.data());
    EXPECT_FALSE(session.batch_requested());
    EXPECT_EQ(session.batch(), 1);
  }
  {
    Argv argv({"prog", "--batch=-3"});
    ObsSession session(argv.argc, argv.ptrs.data());
    EXPECT_FALSE(session.batch_requested());
    EXPECT_EQ(session.batch(7), 7);
  }
  // Malformed values are reported, naming the flag: std::atoi would read
  // "4x" as 4 and "two" silently as absent.
  for (const std::string value : {"4x", "two", "0", " 2"}) {
    Argv argv({"prog", "--batch=" + value, "-x"});
    testing::internal::CaptureStderr();
    ObsSession session(argv.argc, argv.ptrs.data());
    const std::string warning = testing::internal::GetCapturedStderr();
    EXPECT_FALSE(session.batch_requested()) << value;
    EXPECT_EQ(session.batch(7), 7) << value;
    EXPECT_NE(warning.find("--batch=" + value), std::string::npos) << warning;
    ASSERT_EQ(argv.argc, 2) << value;
    EXPECT_STREQ(argv.ptrs[1], "-x");
  }
}

TEST(ObsSessionTest, MalformedJobsIsStrippedAndTreatedAsAbsent) {
  {
    Argv argv({"prog", "--jobs=3", "-x"});
    ObsSession session(argv.argc, argv.ptrs.data());
    EXPECT_EQ(session.jobs(/*fallback=*/5), 3);
  }
  // std::atoi would read these as 0 or 4, and --jobs=0 means one worker
  // per hardware thread.
  for (const std::string value : {"four", "4x", "-2", " 4", ""}) {
    Argv argv({"prog", "--jobs=" + value, "-x"});
    ObsSession session(argv.argc, argv.ptrs.data());
    EXPECT_EQ(session.jobs(/*fallback=*/5), 5) << value;
    ASSERT_EQ(argv.argc, 2) << value;
    EXPECT_STREQ(argv.ptrs[1], "-x");
  }
}

TEST(ObsSessionTest, MetricsOnlyRunWritesNoTrace) {
  const std::string path = testing::TempDir() + "session_only.metrics.json";
  Argv argv({"prog", "--metrics=" + path});
  {
    ObsSession session(argv.argc, argv.ptrs.data());
    EXPECT_FALSE(session.trace_enabled());
    EXPECT_TRUE(session.metrics_enabled());
  }
  EXPECT_NE(slurp(path).find("\"gauges\""), std::string::npos);
}

}  // namespace
}  // namespace satin::obs
