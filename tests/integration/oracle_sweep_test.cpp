// One seeded differential sweep over the simulator's three exact oracles.
//
// Three host-time fast paths must never change a simulated bit: block
// draws (oracle: hw::PlatformConfig::draw_mode = sim::DrawMode::kScalar),
// cycle fast-forward of duty cycles and loops (os::OsConfig::cycle_path =
// CyclePath::kEventPerRound, DESIGN.md §19) and the incremental digest
// cache (core::SatinConfig::shadow_digest_cache, DESIGN.md §11). Every
// campaign trial here runs four times, on the default path and on each
// oracle. All four must agree on the journal record (or the exception
// text), on every stable metric outside engine.* and on the flight
// stream, commit for commit. Scalar draws and the shadow cache dispatch
// the default path's engine events, so they agree on engine.* too; the
// event path runs every keyed action as a queue event instead, with the
// same total.
//
// The trials: fixed cases, more than a hundred trials drawn from seeded
// random specs (perfbench's duel, fleet and storm shapes with random
// Tgoal, core counts and fault plans), and bench_satin_detection's
// clean-rounds workload with the cache on and shadowed. Mini-UnixBench
// passes, whose programs are loops, run on the default path and the event
// path and must agree the same way on their scores.
//
// A mismatch prints the spec text and trial index (or the pass's name);
// the first one in a test also writes both flight recordings, and
// `satin_flightool diff A B` on them names the first divergent commit.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/spec.h"
#include "campaign/trial.h"
#include "core/satin.h"
#include "fault/injector.h"
#include "obs/flight/audit.h"
#include "obs/flight/recorder.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "scenario/scenario.h"
#include "sim/parallel.h"
#include "sim/seed_seq.h"
#include "workload/unixbench.h"

namespace satin {
namespace {

enum class Path { kDefault, kScalarDraws, kEventPerRound, kShadowCache };
constexpr Path kOracles[] = {Path::kScalarDraws, Path::kEventPerRound,
                             Path::kShadowCache};

const char* to_string(Path path) {
  switch (path) {
    case Path::kDefault:
      return "default";
    case Path::kScalarDraws:
      return "scalar-draws";
    case Path::kEventPerRound:
      return "event-per-round";
    case Path::kShadowCache:
      return "shadow-cache";
  }
  return "?";
}

campaign::CampaignSpec on_path(campaign::CampaignSpec spec, Path path) {
  switch (path) {
    case Path::kDefault:
      break;
    case Path::kScalarDraws:
      spec.scenario.platform.draw_mode = sim::DrawMode::kScalar;
      break;
    case Path::kEventPerRound:
      spec.scenario.os.cycle_path = os::CyclePath::kEventPerRound;
      break;
    case Path::kShadowCache:
      spec.duel.satin.shadow_digest_cache = true;
      break;
  }
  return spec;
}

// What one campaign trial (or UnixBench pass) leaves behind.
struct TrialOutcome {
  std::string record;   // journal line (or score bits), or "failed: " and
                        // the exception text
  std::string metrics;  // stable JSON snapshot
  std::uint64_t flight_chain = 0;
  std::uint64_t flight_commits = 0;
  double keyed = 0.0;       // engine.keyed_fired
  double dispatches = 0.0;  // engine.events_fired + engine.keyed_fired
  std::uint64_t reentries = 0;  // hw.secure_reentries
  std::uint64_t faults_injected = 0;
  bool threw = false;
};

double gauge_of(const obs::MetricsRegistry& r, const char* name) {
  const obs::Gauge* g = r.find_gauge(name);
  return g != nullptr ? g->value() : 0.0;
}

// Runs `body`, which fills the record, under a private registry and
// flight recorder, and collects what it leaves behind. With `flight_path`
// the recorder spills the full stream there; otherwise it keeps one
// record, and its chain still folds every commit.
TrialOutcome observe(const std::string& flight_path,
                     const std::function<void(TrialOutcome&)>& body) {
  obs::MetricsRegistry registry;
  obs::FlightRecorder::Options options;
  options.path = flight_path;
  options.ring = flight_path.empty() ? 1 : 0;
  obs::FlightRecorder flight(options);
  TrialOutcome out;
  {
    sim::TrialObsScope sinks(&registry, &flight);
    try {
      body(out);
    } catch (const std::exception& e) {
      out.record = std::string("failed: ") + e.what();
      out.threw = true;
    }
  }
  flight.close();
  out.metrics = registry.to_json(/*include_volatile=*/false);
  out.flight_chain = flight.chain_hash();
  out.flight_commits = flight.commits();
  out.keyed = gauge_of(registry, "engine.keyed_fired");
  out.dispatches = gauge_of(registry, "engine.events_fired") + out.keyed;
  if (const obs::Counter* c = registry.find_counter("hw.secure_reentries")) {
    out.reentries = c->value();
  }
  return out;
}

// Runs trial `index` of `spec` as a campaign worker does.
TrialOutcome run_trial(const campaign::CampaignSpec& spec, std::uint64_t index,
                       const std::string& flight_path = {}) {
  return observe(flight_path, [&](TrialOutcome& out) {
    const campaign::TrialResult result =
        campaign::run_campaign_trial(spec, index);
    out.record = campaign::encode_trial_record(result);
    out.faults_injected = result.faults_injected;
  });
}

std::string without_engine_lines(const std::string& json) {
  std::istringstream in(json);
  std::string out, line;
  while (std::getline(in, line)) {
    if (line.find("\"engine.") == std::string::npos) out += line + "\n";
  }
  return out;
}

// The first line where `got` and `want` differ; empty when they agree.
std::string first_difference(const std::string& got, const std::string& want) {
  std::istringstream a(got), b(want);
  std::string line_a, line_b;
  for (;;) {
    const bool more_a = static_cast<bool>(std::getline(a, line_a));
    const bool more_b = static_cast<bool>(std::getline(b, line_b));
    if (!more_a && !more_b) return "";
    if (more_a != more_b || line_a != line_b) {
      return "got  " + (more_a ? line_a : "<end>") + "\n    want " +
             (more_b ? line_b : "<end>");
    }
  }
}

// One line per way `got`, trial on `path`, disagrees with `want`, the
// default path; empty when they agree.
std::string disagreements(const TrialOutcome& want, const TrialOutcome& got,
                          Path path) {
  std::ostringstream out;
  if (got.record != want.record) {
    out << "  record: got  " << got.record << "\n          want "
        << want.record << "\n";
  }
  // The event path dispatches the same total, none of it keyed.
  const bool engine_too = path != Path::kEventPerRound;
  const double keyed = engine_too ? want.keyed : 0.0;
  if (got.dispatches != want.dispatches || got.keyed != keyed) {
    out << "  dispatches: got " << got.dispatches << " (" << got.keyed
        << " keyed), want " << want.dispatches << " (" << keyed
        << " keyed)\n";
  }
  const std::string metrics = first_difference(
      engine_too ? got.metrics : without_engine_lines(got.metrics),
      engine_too ? want.metrics : without_engine_lines(want.metrics));
  if (!metrics.empty()) out << "  metrics: " << metrics << "\n";
  if (got.flight_commits != want.flight_commits ||
      got.flight_chain != want.flight_chain) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  flight: got %" PRIu64 " commits, chain 0x%016" PRIx64
                  "; want %" PRIu64 ", 0x%016" PRIx64 "\n",
                  got.flight_commits, got.flight_chain, want.flight_commits,
                  want.flight_chain);
    out << line;
  }
  return out.str();
}

// Fails with `what`, the way a case disagrees with the default path. The
// first failure in the process also re-runs the case on the default path
// and on `path` through `record`, which spills each full flight stream to
// the file it is given, and adds where they are and the auditor's
// first-divergence report. A storm trial's recordings run to ~100 MB
// each.
void report_disagreement(
    const std::string& what, const std::string& stem, Path path,
    const std::function<void(Path, const std::string&)>& record) {
  static bool recorded = false;
  if (recorded) {
    ADD_FAILURE() << what;
    return;
  }
  recorded = true;
  const std::string a = testing::TempDir() + stem + "_default.flt";
  const std::string b = testing::TempDir() + stem + "_" + to_string(path) +
                        ".flt";
  record(Path::kDefault, a);
  record(path, b);
  std::string report = "flight recordings (satin_flightool diff " + a + " " +
                       b + "):\n";
  obs::FlightReader log_a, log_b;
  if (log_a.open(a) && log_b.open(b)) {
    report += obs::diff_flight_streams(log_a, log_b).report;
  }
  report += log_a.error() + log_b.error();
  ADD_FAILURE() << what << report;
}

// Runs trial `index` of the campaign spec `text` on the default path and
// on every oracle, and fails, naming the spec, the trial and the oracle,
// on any disagreement. Returns the default path's outcome.
TrialOutcome expect_oracles_agree(const std::string& text,
                                  std::uint64_t index) {
  const campaign::CampaignSpec spec =
      campaign::parse_campaign_spec(text, "oracle-sweep");
  const TrialOutcome want = run_trial(spec, index);
  for (const Path path : kOracles) {
    const TrialOutcome got = run_trial(on_path(spec, path), index);
    const std::string why = disagreements(want, got, path);
    if (why.empty()) continue;
    char stem[96];
    std::snprintf(stem, sizeof(stem), "oracle_sweep_%016" PRIx64 "_%" PRIu64,
                  std::hash<std::string>{}(text), index);
    report_disagreement(
        "trial " + std::to_string(index) + " on the " + to_string(path) +
            " oracle disagrees with the default path\n" + why + "spec:\n" +
            text + "\n",
        stem, path, [&](Path side, const std::string& file) {
          run_trial(on_path(spec, side), index, file);
        });
  }
  if (!want.threw) {
    EXPECT_NE(want.metrics.find("\"engine.events_fired\""), std::string::npos)
        << "trial " << index << " of\n" << text;
    EXPECT_GT(want.flight_commits, 0u) << "trial " << index << " of\n"
                                       << text;
  }
  return want;
}

// --- Fixed cases ---------------------------------------------------------

// perfbench's campaign workloads (perfbench/satin_perfbench.cpp).
// `root_offset` is the input set's root-seed offset.
std::string perfbench_spec(const std::string& body,
                           std::uint64_t root_offset) {
  return "{\"trials\": 100, \"root_seed\": " +
         std::to_string(0x5A7100000ull + root_offset) + ",\n" + body + "}";
}

// The duel workload, cut from 38 to 12 simulated seconds.
const std::string kDuelBody =
    "\"satin\": {\"tgoal_s\": 19.0, \"randomize_wake\": true},"
    "\"duel\": {\"rounds_target\": 1000000, \"max_sim_seconds\": 12.0}";
const std::string kFleetBody =
    "\"satin\": {\"tgoal_s\": 1.9, \"randomize_wake\": true},"
    "\"duel\": {\"rounds_target\": 4}";
// The storm workload: all seven fault kinds.
const std::string kStormBody =
    "\"satin\": {\"tgoal_s\": 57.0, \"randomize_wake\": true,"
    "  \"resilience\": {\"watchdog\": true, \"max_scan_retries\": 2,"
    "                   \"adapt_offline\": true}},"
    "\"duel\": {\"rounds_target\": 1000000, \"max_sim_seconds\": 57.0},"
    "\"faults\": \"seed=9,timer-misfire@2s+10s:p=0.35,irq-lost@7s+13s:p=0.3,"
    "smc-fail@15s+10s:p=0.25,timer-drift@23s+13s:p=0.5:drift=800ms,"
    "irq-spurious@32s+7s:p=0.3:period=2s,bitflip@3s+43s:p=0.04,"
    "core-off@37s+8s:core=3\","
    "\"faults_reseed\": true";

TEST(OracleSweep, DuelTrialIsFastForwardedAndAgrees) {
  const TrialOutcome fast =
      expect_oracles_agree(perfbench_spec(kDuelBody, 0), 0);
  // Nearly every dispatch was a fast-forwarded prober step.
  EXPECT_GT(fast.keyed, 0.9 * fast.dispatches);
}

TEST(OracleSweep, FleetReentryTrialAgrees) {
  // Input set 5, trial 68: the prober runs through a stay that re-entered
  // during its exit notification (ROADMAP, open defects).
  const TrialOutcome fast =
      expect_oracles_agree(perfbench_spec(kFleetBody, 5), 68);
  EXPECT_GT(fast.reentries, 0u);
  EXPECT_NE(fast.record.find(" fn=1 "), std::string::npos) << fast.record;
}

TEST(OracleSweep, StormReentryTrialWithEveryFaultKindAgrees) {
  // Input set 10, trial 5: all seven fault kinds, and a re-entered stay.
  const TrialOutcome fast =
      expect_oracles_agree(perfbench_spec(kStormBody, 10), 5);
  EXPECT_GT(fast.reentries, 0u);
  EXPECT_NE(fast.record.find(" inj="), std::string::npos) << fast.record;
  EXPECT_EQ(fast.record.find(" inj=0 "), std::string::npos) << fast.record;
}

TEST(OracleSweep, FaultReproducerThrowsTheSameDiagnosticEverywhere) {
  // The fault reproducer of EXPERIMENTS.md ("Interned metric handles"):
  // trial 2 dies on a compute completion left queued by a re-entered
  // stay.
  const std::string text =
      R"({"trials":4,"root_seed":7,)"
      R"("satin":{"tgoal_s":12.0,"randomize_wake":true,"resilience":)"
      R"({"watchdog":true,"max_scan_retries":2,"adapt_offline":true}},)"
      R"("duel":{"rounds_target":1000000,"max_sim_seconds":20.0},)"
      R"("faults":"seed=9,timer-misfire@1s+5s:p=0.35,irq-lost@2s+5s:p=0.3,)"
      R"(smc-fail@4s+5s:p=0.25,timer-drift@6s+5s:p=0.5:drift=800ms,)"
      R"(irq-spurious@8s+4s:p=0.3:period=2s,bitflip@1s+15s:p=0.04,)"
      R"(core-off@12s+4s:core=3","faults_reseed":true})";
  const TrialOutcome fast = expect_oracles_agree(text, 2);
  EXPECT_NE(fast.record.find("compute completion fired with no running "
                             "thread (core 0, last thread 'kprober/0'"),
            std::string::npos)
      << fast.record;
  EXPECT_GT(fast.reentries, 0u);
}

TEST(OracleSweep, FaultedShortDuelsAgree) {
  // Short duels under a reseeded storm of scan, timer and memory faults,
  // so the fault injector's draws interleave with the prober's.
  const std::string text = R"({
  "trials": 3,
  "root_seed": 7,
  "satin": {"tgoal_s": 8.0, "randomize_wake": true,
            "resilience": {"watchdog": true, "max_scan_retries": 2}},
  "duel": {"rounds_target": 5},
  "faults": "seed=9,timer-misfire@1s+5s:p=0.35,smc-fail@2s+5s:p=0.25,bitflip@1s+15s:p=0.3",
  "faults_reseed": true
})";
  std::uint64_t faults = 0;
  for (std::uint64_t i = 0; i < 3; ++i) {
    faults += expect_oracles_agree(text, i).faults_injected;
  }
  // The storm fired, so the comparison covered faulted duels.
  EXPECT_GT(faults, 0u);
}

// --- Seeded random specs -------------------------------------------------

// splitmix64: a portable stream, so each block draws the same specs on
// any toolchain.
class Dice {
 public:
  explicit Dice(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi].
  int between(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(
                                              hi - lo + 1));
  }

 private:
  std::uint64_t state_;
};

// A fault plan in the fault/plan.h grammar: one to four windows inside
// the first `horizon_ms` simulated milliseconds, on `cores` cores.
std::string random_fault_plan(Dice& dice, int horizon_ms, int cores) {
  static const char* const kKinds[] = {"timer-misfire", "timer-drift",
                                       "irq-lost",      "irq-spurious",
                                       "smc-fail",      "bitflip",
                                       "core-off"};
  static const char* const kProbabilities[] = {"0.05", "0.1", "0.2",
                                               "0.3",  "0.4", "0.5"};
  std::string plan = "seed=" + std::to_string(dice.between(1, 999));
  const int items = dice.between(1, 4);
  for (int i = 0; i < items; ++i) {
    const int kind = dice.between(0, 6);
    plan += std::string(",") + kKinds[kind] + "@" +
            std::to_string(dice.between(0, horizon_ms - 1)) + "ms+" +
            std::to_string(dice.between(horizon_ms / 10 + 1, horizon_ms)) +
            "ms";
    if (kind == 6) {  // core-off takes a core, not a probability
      plan += ":core=" + std::to_string(dice.between(0, cores - 1));
      continue;
    }
    plan += std::string(":p=") + kProbabilities[dice.between(0, 5)];
    if (dice.between(0, 3) == 0) {
      plan += ":core=" + std::to_string(dice.between(0, cores - 1));
    }
    if (kind == 1) {
      plan += ":drift=" + std::to_string(dice.between(1, 9) * 100) + "ms";
    } else if (kind == 3) {
      plan += ":period=" + std::to_string(dice.between(1, 8) * 250) + "ms";
    } else if (kind == 5) {
      plan += ":flips=" + std::to_string(dice.between(1, 3));
    }
  }
  return plan;
}

// A campaign spec in one of perfbench's three shapes, with a random
// Tgoal, core count, resilience and (for every storm, and a third of the
// rest) fault plan.
std::string random_spec(Dice& dice) {
  const int shape = dice.between(0, 2);
  const int little = dice.between(1, 4);
  const int big = dice.between(little == 1 ? 1 : 0, 2);
  double tgoal_s = 0.0;
  std::string duel;
  int horizon_ms = 0;
  if (shape == 0) {
    // duel: TZ-Evader against a short kernel cycle, stopped on time.
    tgoal_s = 1.9 * dice.between(5, 15);
    horizon_ms = 1000 * dice.between(2, 5);
    duel = "\"rounds_target\": 1000000, \"max_sim_seconds\": " +
           std::to_string(horizon_ms / 1000);
  } else if (shape == 1) {
    // fleet: a handful of rounds at a brisk Tgoal. A fault that stops
    // SATIN's timers would leave the round target unmet, so simulated
    // time is capped too.
    tgoal_s = 0.95 * dice.between(1, 4);
    const int rounds = dice.between(2, 8);
    horizon_ms = static_cast<int>(1000.0 * tgoal_s * rounds / 19.0) + 100;
    duel = "\"rounds_target\": " + std::to_string(rounds) +
           ", \"max_sim_seconds\": 4";
  } else {
    // storm: self-healing SATIN under faults, stopped on time.
    tgoal_s = 3.0 * dice.between(2, 19);
    horizon_ms = 1000 * dice.between(3, 8);
    duel = "\"rounds_target\": 1000000, \"max_sim_seconds\": " +
           std::to_string(horizon_ms / 1000);
  }
  std::ostringstream out;
  out << "{\"trials\": 100, \"root_seed\": " << dice.next() % 1000000
      << ",\n \"platform\": {\"num_little\": " << little
      << ", \"num_big\": " << big << "},\n \"satin\": {\"tgoal_s\": "
      << tgoal_s << ", \"randomize_wake\": true";
  if (shape == 2 || dice.between(0, 2) == 0) {
    out << ",\n   \"resilience\": {\"watchdog\": "
        << (shape == 2 || dice.between(0, 1) == 0 ? "true" : "false")
        << ", \"max_scan_retries\": " << (shape == 2 ? 2 : dice.between(0, 2))
        << ", \"adapt_offline\": "
        << (shape == 2 || dice.between(0, 1) == 0 ? "true" : "false") << "}";
  }
  out << "},\n \"duel\": {" << duel << "}";
  if (shape == 2 || dice.between(0, 2) == 0) {
    out << ",\n \"faults\": \""
        << random_fault_plan(dice, horizon_ms, little + big)
        << "\", \"faults_reseed\": true";
  }
  out << "}";
  return out.str();
}

// 256 random trials, in blocks that ctest runs in parallel.
constexpr int kBlocks = 16;
constexpr int kTrialsPerBlock = 16;

class OracleSweepRandom : public testing::TestWithParam<int> {};

TEST_P(OracleSweepRandom, EveryOracleAgreesWithTheDefaultPath) {
  Dice dice(0x5A7105EEDull + static_cast<std::uint64_t>(GetParam()));
  int faulted = 0, threw = 0, reentries = 0;
  for (int t = 0; t < kTrialsPerBlock; ++t) {
    const std::string text = random_spec(dice);
    const auto index = static_cast<std::uint64_t>(dice.between(0, 99));
    const TrialOutcome outcome = expect_oracles_agree(text, index);
    faulted += outcome.faults_injected > 0 ? 1 : 0;
    threw += outcome.threw ? 1 : 0;
    reentries += outcome.reentries > 0 ? 1 : 0;
  }
  std::printf("block %d: %d trials, %d faulted, %d threw, %d re-entered\n",
              GetParam(), kTrialsPerBlock, faulted, threw, reentries);
}

INSTANTIATE_TEST_SUITE_P(Blocks, OracleSweepRandom,
                         testing::Range(0, kBlocks));

// --- UnixBench passes ----------------------------------------------------
//
// Each mini-UnixBench program is a loop (DESIGN.md §19): on the default
// path a core whose only thread it is completes every iteration as a
// keyed action. A pass runs on the default path and on the event path,
// under a private registry and flight recorder, and the two must agree on
// the score bits, every stable metric outside engine.*, the flight stream
// and the dispatch total.

using Scores = std::vector<workload::UnixBenchHarness::Result>;

struct PassCase {
  std::string name;
  scenario::ScenarioConfig config;
  // Runs the pass on the booted system and returns its scores.
  std::function<Scores(scenario::Scenario&)> run;
};

std::string score_bits(const Scores& scores) {
  std::string out;
  for (const auto& r : scores) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &r.score, sizeof(bits));
    char field[96];
    std::snprintf(field, sizeof(field), "%s=%016" PRIx64 ";", r.name.c_str(),
                  bits);
    out += field;
  }
  return out;
}

// Runs `pass` on `path` (the default or the event path); the outcome's
// record holds the score bits.
TrialOutcome run_pass(const PassCase& pass, Path path,
                      const std::string& flight_path = {}) {
  scenario::ScenarioConfig config = pass.config;
  if (path == Path::kEventPerRound) {
    config.os.cycle_path = os::CyclePath::kEventPerRound;
  }
  return observe(flight_path, [&](TrialOutcome& out) {
    scenario::Scenario system(config);
    try {
      out.record = score_bits(pass.run(system));
    } catch (const std::exception& e) {
      out.record = std::string("failed: ") + e.what();
      out.threw = true;
    }
    // Engine counts after a throw too, so they are compared there.
    obs::snapshot_engine_metrics(system.engine(), *obs::metrics(),
                                 /*include_wall=*/false);
  });
}

// Runs `pass` on the default path and on the event path and fails, naming
// the pass, on any disagreement. Returns the default path's outcome.
TrialOutcome expect_pass_paths_agree(const PassCase& pass) {
  const TrialOutcome want = run_pass(pass, Path::kDefault);
  const TrialOutcome got = run_pass(pass, Path::kEventPerRound);
  const std::string why = disagreements(want, got, Path::kEventPerRound);
  if (!why.empty()) {
    report_disagreement(
        "UnixBench pass '" + pass.name +
            "' on the event-per-round oracle disagrees with the default "
            "path\n" + why,
        "oracle_sweep_pass_" + pass.name, Path::kEventPerRound,
        [&](Path side, const std::string& file) {
          run_pass(pass, side, file);
        });
  }
  EXPECT_GT(want.flight_commits, 0u) << pass.name;
  return want;
}

// perfbench's overhead workload (perfbench/satin_perfbench.cpp): one copy
// of each program beside SATIN at tp = 1 s, self-activating or idle, on
// pair 0 of input set 0.
PassCase overhead_pass(bool with_satin, const std::string& faults = {}) {
  PassCase pass;
  pass.name = std::string("overhead_") + (with_satin ? "satin" : "plain");
  pass.config.platform.seed = sim::TrialSeedSeq(0x5A7100000ull).seed_for(0);
  pass.run = [with_satin, faults](scenario::Scenario& system) {
    const auto injector =
        fault::install_from_spec(system.platform(), faults);
    core::SatinConfig config;
    config.tp_s = 1.0;
    if (!faults.empty()) {
      // fault_storm's self-healing SATIN.
      config.resilience.watchdog = true;
      config.resilience.max_scan_retries = 2;
      config.resilience.adapt_offline = true;
    }
    core::Satin satin(system.platform(), system.kernel(), system.tsp(),
                      config);
    if (with_satin) satin.start();
    workload::UnixBenchHarness harness(system.os());
    return harness.run_suite(sim::Duration::from_sec(12), 1);
  };
  return pass;
}

TEST(OracleSweep, OverheadPassesAgree) {
  for (const bool with_satin : {false, true}) {
    const TrialOutcome fast = expect_pass_paths_agree(overhead_pass(with_satin));
    EXPECT_FALSE(fast.threw) << fast.record;
    // Nearly every dispatch was a fast-forwarded iteration, and the loop
    // core's ticks completed in place with them: what reaches the queue is
    // window starts and ends, SATIN's rounds and the ticks around them.
    EXPECT_GT(fast.keyed, 0.9 * fast.dispatches) << with_satin;
    EXPECT_LT(fast.dispatches - fast.keyed, 1000.0) << with_satin;
  }
}

TEST(OracleSweep, SixTaskFig7PassAgrees) {
  // bench_fig7_overhead's 6-task shape: six copies beside SATIN at
  // tp = 0.8 s, after 5 s of settling, on 3 s windows.
  PassCase pass;
  pass.name = "fig7_6task";
  pass.run = [](scenario::Scenario& system) {
    core::SatinConfig config;
    config.tp_s = 0.8;
    core::Satin satin(system.platform(), system.kernel(), system.tsp(),
                      config);
    satin.start();
    system.run_for(sim::Duration::from_sec(5));
    workload::UnixBenchHarness harness(system.os());
    return harness.run_suite(sim::Duration::from_sec(3), 6);
  };
  const TrialOutcome fast = expect_pass_paths_agree(pass);
  EXPECT_FALSE(fast.threw) << fast.record;
  EXPECT_GT(fast.keyed, 0.9 * fast.dispatches);
}

// examples/fault_storm's seven-kind plan; `seed` is the storm's seed.
std::string fault_storm_plan(int seed) {
  return "seed=" + std::to_string(seed) +
         ",timer-misfire@5s+30s:p=0.35,irq-lost@20s+40s:p=0.3,"
         "smc-fail@45s+30s:p=0.25,timer-drift@70s+40s:p=0.5:drift=800ms,"
         "irq-spurious@95s+20s:p=0.3:period=2s,bitflip@10s+130s:p=0.12,"
         "core-off@110s+25s:core=3";
}

TEST(OracleSweep, FaultStormPassesAgree) {
  // The overhead pass under fault_storm's plan. Replica 1's storm seed
  // runs the whole suite through every fault window.
  PassCase pass = overhead_pass(true, fault_storm_plan(10));
  pass.name = "fault_storm_seed10";
  const TrialOutcome fast = expect_pass_paths_agree(pass);
  EXPECT_FALSE(fast.threw) << fast.record;
  EXPECT_NE(fast.metrics.find("\"fault.injected\""), std::string::npos);
  // Replica 0's seed: a secure stay re-entered during its exit
  // notification (ROADMAP, open defects) freezes execl_throughput's core
  // with no compute pending, and every path throws the same diagnostic.
  pass = overhead_pass(true, fault_storm_plan(9));
  pass.name = "fault_storm_seed9";
  const TrialOutcome seed9 = expect_pass_paths_agree(pass);
  EXPECT_NE(seed9.record.find(
                "secure entry froze a thread with no pending compute (core "
                "0, thread 'unixbench/execl_throughput'"),
            std::string::npos)
      << seed9.record;
}

TEST(OracleSweep, PinnedSatinPassHandsBackEveryRound) {
  // Harness.SatinDisruptionReducesSensitiveScores's shape: SATIN and the
  // program both on core 2 at tp = 0.5 s, so nearly every round freezes
  // the loop's core, hands its completion back and delivers a penalty.
  PassCase pass;
  pass.name = "pinned_core2";
  pass.run = [](scenario::Scenario& system) {
    core::SatinConfig config;
    config.tp_s = 0.5;
    config.multi_core = false;
    config.fixed_core = 2;
    core::Satin satin(system.platform(), system.kernel(), system.tsp(),
                      config);
    satin.start();
    struct Penalizer : hw::WorldListener {
      workload::WorkloadThread* target = nullptr;
      void on_secure_entry(hw::CoreId, sim::Time) override {}
      void on_secure_exit(hw::CoreId core, sim::Time) override {
        if (target != nullptr && core == target->current_core() &&
            !target->stopped()) {
          target->add_penalty(target->spec().disruption_penalty);
        }
      }
    } penalizer;
    system.platform().core(2).add_world_listener(&penalizer);
    Scores scores;
    for (const int program : {0, 3, 7}) {
      const workload::WorkloadSpec& spec = workload::unixbench_suite()[program];
      auto thread = std::make_unique<workload::WorkloadThread>(spec);
      thread->pin_to_core(2);
      penalizer.target = static_cast<workload::WorkloadThread*>(
          system.os().add_thread(std::move(thread)));
      system.run_for(sim::Duration::from_sec(5));
      scores.push_back(
          {spec.name, static_cast<double>(penalizer.target->iterations())});
      penalizer.target->request_stop();
      system.run_for(sim::Duration::from_ms(500));
    }
    system.platform().core(2).remove_world_listener(&penalizer);
    return scores;
  };
  const TrialOutcome fast = expect_pass_paths_agree(pass);
  EXPECT_FALSE(fast.threw) << fast.record;
  EXPECT_GT(fast.keyed, 0u);
}

// --- Clean rounds --------------------------------------------------------

struct CleanRounds {
  secure::DigestCache::Stats stats;
  bool cache_enabled = false;
  std::uint64_t rounds = 0;
  std::uint64_t alarms = 0;
  std::string metrics;  // stable JSON snapshot
  std::uint64_t flight_chain = 0;  // covers the digest-cache outcomes too
  std::uint64_t flight_commits = 0;
};

std::string stats_text(const secure::DigestCache::Stats& s) {
  std::ostringstream out;
  out << "rounds=" << s.rounds << " hits=" << s.hits << " misses=" << s.misses
      << " bypasses=" << s.bypasses << " bytes_hashed=" << s.bytes_hashed
      << " bytes_skipped=" << s.bytes_skipped;
  return out.str();
}

// bench_satin_detection --clean-rounds=400: SATIN alone at tp = 50 ms, so
// nearly every round re-hashes a byte-identical area.
CleanRounds run_clean_rounds(bool shadow) {
  obs::MetricsRegistry registry;
  obs::FlightRecorder::Options options;
  options.ring = 1;
  obs::FlightRecorder flight(options);
  sim::TrialObsScope sinks(&registry, &flight);
  scenario::Scenario system;
  core::SatinConfig config;
  config.tp_s = 0.05;
  config.shadow_digest_cache = shadow;
  core::Satin satin(system.platform(), system.kernel(), system.tsp(), config);
  satin.start();
  while (satin.rounds() < 400) system.run_for(sim::Duration::from_ms(500));
  satin.stop();
  system.run_for(sim::Duration::from_ms(500));  // drain in-flight rounds
  obs::snapshot_engine_metrics(system.engine(), registry,
                               /*include_wall=*/false);
  const secure::DigestCache& cache =
      satin.checker().introspector().digest_cache();
  CleanRounds out;
  out.stats = cache.stats();
  out.cache_enabled = cache.enabled();
  out.rounds = satin.rounds();
  out.alarms = satin.alarm_count();
  out.metrics = registry.to_json(/*include_volatile=*/false);
  out.flight_chain = flight.chain_hash();
  out.flight_commits = flight.commits();
  return out;
}

TEST(OracleSweep, CleanRoundsAgreeWithTheCacheShadowed) {
  const CleanRounds cached = run_clean_rounds(/*shadow=*/false);
  const CleanRounds shadow = run_clean_rounds(/*shadow=*/true);
  EXPECT_TRUE(cached.cache_enabled);
  EXPECT_FALSE(shadow.cache_enabled);
  EXPECT_GE(cached.rounds, 400u);
  EXPECT_EQ(cached.alarms, 0u);
  // Warm rounds were served from the cache.
  EXPECT_GT(cached.stats.hits, 0u);
  EXPECT_EQ(stats_text(shadow.stats), stats_text(cached.stats));
  EXPECT_EQ(shadow.rounds, cached.rounds);
  EXPECT_EQ(shadow.alarms, cached.alarms);
  EXPECT_EQ(first_difference(shadow.metrics, cached.metrics), "");
  EXPECT_NE(cached.metrics.find("\"digest_cache.hits\""), std::string::npos);
  EXPECT_GT(cached.flight_commits, 0u);
  EXPECT_EQ(shadow.flight_commits, cached.flight_commits);
  EXPECT_EQ(shadow.flight_chain, cached.flight_chain);
}

}  // namespace
}  // namespace satin
