// End-to-end observability: run the quickstart scenario (SATIN catches a
// GETTID rootkit) with a flight recorder + registry installed, draw the
// recording with the Chrome exporter, and check that the timeline tells a
// coherent story — spans pair up per core, the counters agree with the
// simulation, and two same-seed runs draw identically.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "attack/rootkit.h"
#include "core/satin.h"
#include "obs/flight/chrome.h"
#include "obs/flight/recorder.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "scenario/scenario.h"
#include "sim/parallel.h"

namespace satin {
namespace {

struct RunResult {
  std::string chrome_json;
  std::string metrics_json;
  std::uint64_t scans = 0;
  std::uint64_t rounds = 0;
  std::uint64_t world_switches = 0;
  std::uint64_t detections = 0;
};

std::string export_chrome(const std::string& flight_path) {
  obs::FlightReader reader;
  EXPECT_TRUE(reader.open(flight_path)) << reader.error();
  std::FILE* out = std::tmpfile();
  EXPECT_NE(out, nullptr);
  EXPECT_TRUE(obs::write_chrome_trace(reader, out));
  std::string text;
  std::rewind(out);
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), out)) > 0) text.append(buf, n);
  std::fclose(out);
  return text;
}

// `stem` names the recording, so tests running side by side do not share
// a file.
RunResult run_quickstart_recorded(const std::string& stem) {
  const std::string path = testing::TempDir() + stem + ".flt";
  obs::MetricsRegistry registry;
  {
    obs::FlightRecorder::Options options;
    options.path = path;
    obs::FlightRecorder flight(options);
    sim::TrialObsScope sinks(&registry, &flight);
    scenario::Scenario system;
    core::Satin satin(system.platform(), system.kernel(), system.tsp(),
                      core::SatinConfig{});
    satin.start();
    attack::Rootkit rootkit(system.os(),
                            system.platform().rng().fork("quickstart"));
    rootkit.add_gettid_trace();
    rootkit.install();
    while (satin.checker().check_count(14) == 0) {
      system.run_for(sim::Duration::from_sec(5));
    }
    satin.stop();
    EXPECT_TRUE(flight.close());
  }

  RunResult out;
  out.chrome_json = export_chrome(path);
  std::remove(path.c_str());
  out.metrics_json = registry.to_json();
  auto counter = [&](const char* name) -> std::uint64_t {
    const obs::Counter* c = registry.find_counter(name);
    return c == nullptr ? 0 : c->value();
  };
  out.scans = counter("introspect.scans");
  out.rounds = counter("satin.rounds");
  out.world_switches = counter("hw.world_switches");
  out.detections = counter("satin.detections");
  return out;
}

// (begins, ends) for one span name, grouped by track.
std::map<int, std::pair<int, int>> span_balance(const std::string& json,
                                                const std::string& name) {
  std::map<int, std::pair<int, int>> by_track;
  std::istringstream in(json);
  std::string line;
  const std::string head = "{\"name\":\"" + name + "\",";
  while (std::getline(in, line)) {
    if (line.rfind(head, 0) != 0) continue;
    const int tid = std::stoi(line.substr(line.find("\"tid\":") + 6));
    if (line.find("\"ph\":\"B\"") != std::string::npos) ++by_track[tid].first;
    if (line.find("\"ph\":\"E\"") != std::string::npos) ++by_track[tid].second;
  }
  return by_track;
}

TEST(ObsIntegrationTest, QuickstartTraceTellsACoherentStory) {
  const RunResult run = run_quickstart_recorded("obs_quickstart_story");

  // The simulation did real work and the counters saw it.
  EXPECT_GT(run.scans, 0u);
  EXPECT_GT(run.rounds, 0u);
  EXPECT_GT(run.world_switches, 0u);
  EXPECT_GT(run.detections, 0u) << "rootkit in area 14 must raise an alarm";
  // Every SATIN round launches one scan; at most the in-flight tail (one
  // session per core) can be un-completed when the run stops.
  EXPECT_GE(run.rounds, run.scans);
  EXPECT_LE(run.rounds - run.scans, 6u);

  // World-switch spans pair per core (the run ends outside the secure
  // world, so every enter has its exit), all on secure tracks.
  const auto switches = span_balance(run.chrome_json, "secure_world");
  ASSERT_FALSE(switches.empty());
  for (const auto& [tid, be] : switches) {
    EXPECT_EQ(tid % 2, 0) << "secure_world off a secure track: " << tid;
    EXPECT_EQ(be.first, be.second) << "unbalanced secure_world on track "
                                   << tid;
    EXPECT_GT(be.first, 0);
  }
  // So do the switch spans, one of each per stay.
  for (const char* name : {"world_switch_in", "world_switch_out"}) {
    for (const auto& [tid, be] : span_balance(run.chrome_json, name)) {
      EXPECT_EQ(be.first, be.second) << name << " on track " << tid;
      EXPECT_EQ(be.first, switches.at(tid).first) << name << " on " << tid;
    }
  }

  // Scan spans pair per core too; at most the final in-flight scan (cut
  // off by satin.stop()) may be open.
  const auto scans = span_balance(run.chrome_json, "scan");
  ASSERT_FALSE(scans.empty());
  int total_begins = 0;
  for (const auto& [tid, be] : scans) {
    EXPECT_GE(be.first, be.second);
    EXPECT_LE(be.first - be.second, 1)
        << "more than one dangling scan on track " << tid;
    total_begins += be.first;
  }
  EXPECT_GE(static_cast<std::uint64_t>(total_begins), run.scans);

  // The export carries the per-core/world track metadata and the engine's
  // dispatch counter.
  EXPECT_NE(run.chrome_json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(run.chrome_json.find("core0/secure"), std::string::npos);
  EXPECT_NE(run.chrome_json.find("\"dispatches_per_ms\""), std::string::npos);
  EXPECT_NE(run.metrics_json.find("introspect.scans"), std::string::npos);
}

TEST(ObsIntegrationTest, SameSeedRunsTraceIdentically) {
  const RunResult a = run_quickstart_recorded("obs_quickstart_a");
  const RunResult b = run_quickstart_recorded("obs_quickstart_b");
  EXPECT_EQ(a.chrome_json, b.chrome_json);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

TEST(ObsIntegrationTest, EngineSelfMetricsLandInSnapshot) {
  sim::Engine engine;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_after(sim::Duration::from_us(i + 1), [] {});
  }
  engine.run_all();
  obs::MetricsRegistry registry;
  obs::snapshot_engine_metrics(engine, registry);
  ASSERT_NE(registry.find_gauge("engine.events_fired"), nullptr);
  EXPECT_DOUBLE_EQ(registry.find_gauge("engine.events_fired")->value(), 10.0);
  ASSERT_NE(registry.find_gauge("engine.queue_high_water"), nullptr);
  EXPECT_DOUBLE_EQ(registry.find_gauge("engine.queue_high_water")->value(),
                   10.0);
  ASSERT_NE(registry.find_gauge("engine.wall_seconds"), nullptr);
  EXPECT_GE(registry.find_gauge("engine.wall_seconds")->value(), 0.0);
}

}  // namespace
}  // namespace satin
