// satin_flightool chrome: every record kind lands as its named event on
// its track, spans pair, merged trials become processes, dispatches fold
// into one per-millisecond counter, and the output is a pure function of
// the recording.
#include "obs/flight/chrome.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fault/plan.h"
#include "obs/flight/recorder.h"
#include "sim/time.h"

namespace satin::obs {
namespace {

const char* fault_name(std::uint64_t kind) {
  return fault::to_string(static_cast<fault::FaultKind>(kind));
}

// Records `fill` into a spill file and returns its path.
std::string recorded(const char* name,
                     const std::function<void(FlightRecorder&)>& fill) {
  const std::string path = ::testing::TempDir() + name;
  FlightRecorder::Options opts;
  opts.path = path;
  FlightRecorder rec(opts);
  fill(rec);
  EXPECT_TRUE(rec.close());
  return path;
}

// The export of the recording at `path`.
std::string exported(const std::string& path) {
  FlightReader reader;
  EXPECT_TRUE(reader.open(path)) << reader.error();
  std::FILE* out = std::tmpfile();
  EXPECT_NE(out, nullptr);
  EXPECT_TRUE(write_chrome_trace(reader, out, fault_name));
  std::string text;
  std::rewind(out);
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), out)) > 0) text.append(buf, n);
  std::fclose(out);
  return text;
}

// The export's array elements, one JSON object each.
std::vector<std::string> elements(const std::string& json) {
  std::vector<std::string> out;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == ',') line.pop_back();
    if (line.rfind("{\"name\"", 0) == 0) out.push_back(line);
  }
  return out;
}

bool has(const std::vector<std::string>& events, const std::string& event) {
  for (const std::string& e : events) {
    if (e == event) return true;
  }
  return false;
}

void record(FlightRecorder& r, FlightKind kind, std::int64_t t_ps, int actor,
            std::uint64_t payload) {
  r.record(kind, sim::Time::from_ps(t_ps), 0, actor, payload);
}

// One record of every kind a component records, on core 1 (tracks 3 and
// 4) or the engine track.
void every_kind(FlightRecorder& r) {
  record(r, FlightKind::kWorldEnter, 1'000'000, 1, 2'000);
  record(r, FlightKind::kScanStart, 2'000'000, 1, 0);
  record(r, FlightKind::kScanEnd, 3'000'000, 1, 0xD16E57);
  // The three digest-cache outcomes: served, hashed, bypass.
  record(r, FlightKind::kDigestCache, 3'000'000, 1, 0u);
  record(r, FlightKind::kDigestCache, 3'000'000, 1, (4096u << 2) | 1u);
  record(r, FlightKind::kDigestCache, 3'000'000, 1, (512u << 2) | 2u);
  record(r, FlightKind::kRetry, 3'000'000, 1, 14);
  record(r, FlightKind::kAlarm, 3'000'000, 1, (14u << 1) | 1u);
  record(r, FlightKind::kAlarm, 3'000'000, 1, 14u << 1);
  record(r, FlightKind::kWorldExit, 4'000'000, 1, 1'000);
  record(r, FlightKind::kProbe, 5'000'000, 1, 1'500'000);
  record(r, FlightKind::kFault, 6'000'000, 1,
         static_cast<std::uint64_t>(fault::FaultKind::kBitFlip));
  record(r, FlightKind::kTimerFire, 7'000'000, 1, 29);
  record(r, FlightKind::kTimerFire, 7'000'000, 1, 30);
  record(r, FlightKind::kTick, 7'000'000, 1, 0);
  record(r, FlightKind::kRace, 8'000'000, kGlobalTrack, 3);
  record(r, FlightKind::kRace, 8'000'000, kGlobalTrack, 0);
  record(r, FlightKind::kRound, 9'000'000, 1, 14);
  record(r, FlightKind::kEvasion, 10'000'000, 1, 2'000'000);
  record(r, FlightKind::kRearm, 11'000'000, kGlobalTrack, 0);
  for (const FlightCoreState state :
       {FlightCoreState::kOnline, FlightCoreState::kOffline,
        FlightCoreState::kSatinDropped, FlightCoreState::kSatinResorbed,
        FlightCoreState::kWatchdogRearm}) {
    record(r, FlightKind::kCoreState, 12'000'000, 1,
           core_state_payload(state));
  }
  record(r, FlightKind::kCoreState, 12'000'000, 1,
         core_state_payload(FlightCoreState::kIrqDroppedOffline, 29));
  record(r, FlightKind::kNote, 13'000'000, 1, 7);
}

std::string event(const char* name, const char* cat, char phase,
                  const char* ts, int tid, const std::string& args = "") {
  std::string out = std::string("{\"name\":\"") + name + "\",\"cat\":\"" +
                    cat + "\",\"ph\":\"" + phase + "\",\"ts\":" + ts +
                    ",\"pid\":0,\"tid\":" + std::to_string(tid);
  if (phase == 'i') out += ",\"s\":\"t\"";
  if (!args.empty()) out += ",\"args\":{" + args + "}";
  return out + "}";
}

TEST(FlightChrome, EachKindMapsToItsEventOnItsTrack) {
  const std::string path = recorded("chrome_kinds.flt", every_kind);
  const std::vector<std::string> events = elements(exported(path));
  const std::vector<std::string> want = {
      event("secure_timer_irq", "hw", 'i', "1.000000", 4),
      event("secure_world", "hw", 'B', "1.000000", 4),
      event("world_switch_in", "hw", 'B', "1.000000", 4),
      event("world_switch_in", "hw", 'E', "1.002000", 4),
      event("scan", "secure", 'B', "2.000000", 4),
      event("scan", "secure", 'E', "3.000000", 4),
      event("digest_cache_served", "secure", 'i', "3.000000", 4,
            "\"bytes_hashed\":0"),
      event("digest_cache_hashed", "secure", 'i', "3.000000", 4,
            "\"bytes_hashed\":4096"),
      event("digest_cache_bypass", "secure", 'i', "3.000000", 4,
            "\"bytes_hashed\":512"),
      event("retry", "integrity", 'i', "3.000000", 4, "\"area\":14"),
      event("transient_alarm", "integrity", 'i', "3.000000", 4, "\"area\":14"),
      event("alarm", "integrity", 'i', "3.000000", 4, "\"area\":14"),
      event("world_switch_out", "hw", 'B', "3.999000", 4),
      event("world_switch_out", "hw", 'E', "4.000000", 4),
      event("secure_world", "hw", 'E', "4.000000", 4),
      event("scan_detected", "attack", 'i', "5.000000", 3,
            "\"staleness_s\":1.5e-06"),
      event("bitflip", "fault", 'i', "6.000000", 3),
      event("timer_fire", "hw", 'i', "7.000000", 4, "\"irq\":29"),
      event("timer_fire", "hw", 'i', "7.000000", 3, "\"irq\":30"),
      event("tick", "os", 'i', "7.000000", 3),
      event("write_before_cursor", "race", 'i', "8.000000", 0,
            "\"bytes_won\":3"),
      event("write_after_cursor", "race", 'i', "8.000000", 0,
            "\"bytes_won\":0"),
      event("round", "satin", 'i', "9.000000", 4, "\"area\":14"),
      event("evasion", "attack", 'i', "10.000000", 3,
            "\"staleness_s\":2e-06"),
      event("rearm", "attack", 'i', "11.000000", 0),
      event("core_online", "hw", 'i', "12.000000", 3),
      event("core_offline", "hw", 'i', "12.000000", 3),
      event("core_dropped", "satin", 'i', "12.000000", 4),
      event("core_resorbed", "satin", 'i', "12.000000", 4),
      event("watchdog_rearm", "satin", 'i', "12.000000", 4),
      event("irq_dropped_offline", "hw", 'i', "12.000000", 3, "\"irq\":29"),
  };
  for (const std::string& e : want) EXPECT_TRUE(has(events, e)) << e;
  // Besides these, only track metadata: a process name and two records
  // per track (engine, core1/normal, core1/secure). The note draws
  // nothing.
  EXPECT_EQ(events.size(), want.size() + 1 + 3 * 2);
  EXPECT_TRUE(has(events,
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                  "\"tid\":4,\"args\":{\"name\":\"core1/secure\"}}"));
  std::remove(path.c_str());
}

TEST(FlightChrome, SpansPairPerTrack) {
  const std::string path = recorded("chrome_spans.flt", [](FlightRecorder& r) {
    every_kind(r);
    // A second stay on core 3.
    record(r, FlightKind::kWorldEnter, 20'000'000, 3, 5'000);
    record(r, FlightKind::kScanStart, 20'005'000, 3, 0);
    record(r, FlightKind::kScanEnd, 21'000'000, 3, 0);
    record(r, FlightKind::kWorldExit, 21'006'000, 3, 6'000);
  });
  std::map<std::pair<std::string, std::string>, int> open;
  int spans = 0;
  for (const std::string& e : elements(exported(path))) {
    const bool begin = e.find("\"ph\":\"B\"") != std::string::npos;
    if (!begin && e.find("\"ph\":\"E\"") == std::string::npos) continue;
    const std::string name = e.substr(9, e.find('"', 9) - 9);
    const std::string tid = e.substr(e.find("\"tid\":"));
    open[{name, tid.substr(0, tid.find_first_of(",}"))}] += begin ? 1 : -1;
    spans += begin ? 1 : 0;
  }
  EXPECT_EQ(spans, 2 * 4);
  for (const auto& [track, depth] : open) {
    EXPECT_EQ(depth, 0) << track.first << " " << track.second;
  }
  std::remove(path.c_str());
}

// A merged stream of two trials, each recorded in memory and written
// through append_trial, as sim::TrialRunner writes them.
std::string merged_two_trials(const char* name) {
  return recorded(name, [](FlightRecorder& parent) {
    for (std::size_t i = 0; i < 2; ++i) {
      FlightRecorder trial;
      trial.record(FlightKind::kDispatch, sim::Time::from_us(5), 0, -1, 0);
      trial.record(FlightKind::kTick, sim::Time::from_us(5), 0,
                   static_cast<int>(i), 0);
      const std::vector<FlightRecord> kept = trial.snapshot();
      std::size_t k = 0;
      parent.append_trial(i, 100 + i, trial.totals(), [&](FlightRecord& rec) {
        if (k == kept.size()) return false;
        rec = kept[k++];
        return true;
      });
    }
  });
}

TEST(FlightChrome, MergedTrialsAreProcesses) {
  const std::string path = merged_two_trials("chrome_merged.flt");
  const std::vector<std::string> events = elements(exported(path));
  for (int pid : {1, 2}) {
    const std::string p = std::to_string(pid);
    EXPECT_TRUE(has(events, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
                                p + ",\"tid\":0,\"args\":{\"name\":\"trial " +
                                std::to_string(pid - 1) + "\"}}"))
        << pid;
    EXPECT_TRUE(has(events, "{\"name\":\"tick\",\"cat\":\"os\",\"ph\":\"i\","
                            "\"ts\":5.000000,\"pid\":" +
                                p + ",\"tid\":" +
                                std::to_string(1 + 2 * (pid - 1)) +
                                ",\"s\":\"t\"}"))
        << pid;
  }
  int processes = 0;
  for (const std::string& e : events) {
    if (e.rfind("{\"name\":\"process_name\"", 0) == 0) ++processes;
    EXPECT_EQ(e.find("trial_"), std::string::npos) << e;
    EXPECT_EQ(e.find("\"pid\":0,"), std::string::npos) << e;
  }
  // Nothing lies outside a bracket, so pid 0 is not drawn at all.
  EXPECT_EQ(processes, 2);
  std::remove(path.c_str());
}

TEST(FlightChrome, DispatchCounterSumsToTheDispatchRecords) {
  // 7 dispatches in ms 0, 3 in ms 1, a gap, 5 in ms 4.
  const std::vector<std::int64_t> ms = {0, 0, 0, 0, 0, 0, 0, 1, 1, 1,
                                        4, 4, 4, 4, 4};
  const auto fill = [&ms](FlightRecorder& r) {
    std::uint64_t seq = 0;
    for (const std::int64_t m : ms) {
      r.record(FlightKind::kDispatch,
               sim::Time::from_ps(m * 1'000'000'000 + 1'000 *
                                      static_cast<std::int64_t>(seq)),
               seq, -1, 0);
      ++seq;
    }
  };
  const std::string path = recorded("chrome_counter.flt", fill);
  std::vector<std::pair<std::string, std::uint64_t>> samples;
  for (const std::string& e : elements(exported(path))) {
    if (e.find("\"ph\":\"C\"") == std::string::npos) continue;
    EXPECT_NE(e.find("\"name\":\"dispatches_per_ms\""), std::string::npos);
    EXPECT_NE(e.find("\"tid\":0"), std::string::npos);
    const std::size_t ts = e.find("\"ts\":") + 5;
    const std::size_t v = e.find("\"dispatches_per_ms\":", ts) + 20;
    samples.emplace_back(e.substr(ts, e.find(',', ts) - ts),
                         std::stoull(e.substr(v)));
  }
  const std::vector<std::pair<std::string, std::uint64_t>> want = {
      {"0.000000", 7},    {"1000.000000", 3}, {"2000.000000", 0},
      {"4000.000000", 5}, {"5000.000000", 0}};
  EXPECT_EQ(samples, want);
  std::uint64_t sum = 0;
  for (const auto& s : samples) sum += s.second;
  EXPECT_EQ(sum, ms.size());
  std::remove(path.c_str());
}

TEST(FlightChrome, OutputIsByteDeterministic) {
  const std::string a = recorded("chrome_det_a.flt", every_kind);
  const std::string b = merged_two_trials("chrome_det_b.flt");
  const std::string first = exported(a);
  EXPECT_EQ(exported(a), first);
  // Recording the same stream again exports the same bytes.
  const std::string merged = exported(b);
  merged_two_trials("chrome_det_b.flt");
  EXPECT_EQ(exported(b), merged);
  EXPECT_EQ(first.rfind("{\"traceEvents\":[\n", 0), 0u);
  EXPECT_NE(first.find("\n],\"displayTimeUnit\":\"ms\",\"otherData\":"
                       "{\"dropped_records\":0}}\n"),
            std::string::npos);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

}  // namespace
}  // namespace satin::obs
