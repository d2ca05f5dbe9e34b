// §VI-B1 — Defeating TZ-Evader: the paper's headline experiment.
//
// SATIN (19 areas, tp = 8 s) against TZ-Evader (KProber threshold
// 1.8e-3 s, GETTID hijack in area 14). The paper runs 190 rounds: the
// whole kernel is examined 10 times, area 14 is checked 10 times and the
// hijack is detected all 10 times; KProber reports all 190 rounds with no
// false positives or negatives; the average gap between area-14 checks is
// 141 s and the guaranteed full-scan period ~152 s.
//
// Three seed replicas of scenario::run_single_duel run on a
// sim::TrialRunner over --jobs=J workers. Replica 0 keeps the
// paper-baseline platform seed (its rows below match the single-run bench
// of record); the extra replicas feed the seed-stability summary.
#include <algorithm>
#include <climits>
#include <cstdint>
#include <optional>
#include <vector>

#include "bench/common.h"
#include "scenario/experiments.h"
#include "sim/parallel.h"

namespace {

satin::core::SatinConfig clean_config() {
  satin::core::SatinConfig config;
  config.tp_s = 0.05;  // one area every 50 ms: hashing dominates events
  return config;
}

void print_clean_rows(satin::scenario::Scenario& system,
                      satin::core::Satin& satin) {
  using namespace satin;
  const auto& stats = satin.checker().introspector().digest_cache().stats();
  bench::heading("SATIN clean-round introspection (digest-cache workload)");
  bench::text_row("introspection rounds", std::to_string(satin.rounds()));
  bench::text_row("full kernel cycles", std::to_string(satin.full_cycles()));
  bench::text_row("areas", std::to_string(satin.area_count()));
  bench::text_row("alarms", std::to_string(satin.alarm_count()),
                  "(every digest matched the authorized value)");
  bench::sci_row("simulated duration (s)", {system.now().sec()});
  // Shadow mode keeps this bookkeeping identical with the cache off
  // (core::SatinConfig::shadow_digest_cache), so these rows are the same
  // in both modes. The pristine-base serve path counts a served area's
  // chunks as misses for the same reason, so they are what hashing the
  // area would print.
  bench::subheading("digest cache");
  bench::text_row("chunk hits", std::to_string(stats.hits));
  bench::text_row("chunk misses", std::to_string(stats.misses));
  bench::text_row("bypasses", std::to_string(stats.bypasses));
  bench::text_row("bytes hashed", std::to_string(stats.bytes_hashed));
  bench::text_row("bytes skipped", std::to_string(stats.bytes_skipped));
}

// --clean-rounds=N: a hash-dominated workload for the digest
// cache. SATIN runs alone (no attacker, no workload churn) with a brisk
// tp, so almost every round re-hashes a byte-identical area: exactly the
// mostly-clean steady state §VI-B1's long runs spend their time in. With
// the cache on, warm rounds skip the full re-hash in host time; simulated
// time, digests and every stdout row below stay bit-identical to the
// cache's shadow mode (the oracle sweep test compares the two).
int run_clean_rounds(std::uint64_t target) {
  using namespace satin;
  scenario::Scenario system;
  core::Satin satin(system.platform(), system.kernel(), system.tsp(),
                    clean_config());
  satin.start();
  // Slice the run so we stop near the target instead of overshooting by
  // a whole horizon; the loop is deterministic (sim-time driven).
  while (satin.rounds() < target) {
    system.run_for(sim::Duration::from_ms(500));
  }
  satin.stop();
  system.run_for(sim::Duration::from_ms(500));  // drain in-flight rounds
  print_clean_rows(system, satin);
  bench::json_row("bench_satin_detection_clean", satin.rounds(), 1,
                  system.engine().wall_seconds());
  return satin.alarm_count() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  satin::bench::ObsGuard obs(argc, argv);
  using namespace satin;
  // --clean-rounds=N runs the clean-rounds workload instead of the duel.
  const std::optional<unsigned long long> clean_rounds =
      obs::take_whole_number(argc, argv, "clean-rounds", 1, UINT64_MAX);
  // --jobs=J fans the duel's replicas out. The clean-rounds run is one
  // trial and does not read it, so there it is an unrecognized argument.
  const int jobs =
      clean_rounds ? 1
                   : sim::TrialRunner::jobs_from_flag(obs::take_whole_number(
                         argc, argv, "jobs", 0, INT_MAX));
  if (obs::reject_unconsumed_args(argc, argv)) return 2;
  if (clean_rounds) return run_clean_rounds(*clean_rounds);
  constexpr std::size_t kReplicas = 3;

  scenario::DuelConfig duel;
  duel.rounds_target = 190;  // defaults ARE the paper config

  std::printf(
      "running %zu replicas of 190 introspection rounds (~1520 simulated s "
      "each)...\n",
      kReplicas);
  sim::TrialRunnerOptions options;
  options.jobs = jobs;
  sim::TrialRunner runner(options);
  const std::vector<scenario::DuelReport> reports = runner.run_collect(
      kReplicas, [&duel](const sim::TrialContext& ctx) {
        scenario::ScenarioConfig config;
        // Replica 0 is the run of record: the default platform seed every
        // previous single-run bench and EXPERIMENTS.md quoted.
        if (ctx.index > 0) config.platform.seed = ctx.seed;
        return scenario::run_single_duel(config, duel).report;
      });
  const scenario::DuelReport& report = reports[0];

  bench::heading("SATIN vs TZ-Evader (§VI-B1)");
  bench::text_row("introspection rounds", std::to_string(report.rounds),
                  "(paper: 190)");
  bench::text_row("full kernel scans", std::to_string(report.full_cycles),
                  "(paper: 10)");
  bench::text_row("area-14 checks",
                  std::to_string(report.target_area_rounds), "(paper: 10)");
  bench::text_row("area-14 detections",
                  std::to_string(report.target_area_alarms),
                  "(paper: 10/10)");
  bench::text_row("prober-reported rounds",
                  std::to_string(report.prober_detections),
                  "(paper: all 190)");
  bench::text_row("false positives", std::to_string(report.false_positives),
                  "(paper: 0)");
  bench::text_row("false negatives", std::to_string(report.false_negatives),
                  "(paper: 0)");
  bench::sci_row("avg gap between area-14 checks (s)",
                 {report.avg_target_gap_s}, "(paper: 141 s)");
  bench::text_row("evasion attempts", std::to_string(report.evasions_started));
  bench::text_row("successful evasions of area-14 scans",
                  std::to_string(report.target_area_rounds -
                                 report.target_area_alarms),
                  "(paper: 0 — 'all the recovery efforts fail')");
  bench::sci_row("simulated duration (s)", {report.sim_seconds});

  bench::subheading("seed stability across replicas");
  std::size_t always_caught = 0;
  std::uint64_t fp = 0, fn = 0;
  double gap_min = report.avg_target_gap_s;
  double gap_max = gap_min;
  for (const scenario::DuelReport& r : reports) {
    if (r.satin_always_caught()) ++always_caught;
    fp += r.false_positives;
    fn += r.false_negatives;
    gap_min = std::min(gap_min, r.avg_target_gap_s);
    gap_max = std::max(gap_max, r.avg_target_gap_s);
  }
  bench::text_row("replicas always caught",
                  std::to_string(always_caught) + "/" +
                      std::to_string(kReplicas),
                  "(every area-14 pass alarmed, every seed)");
  bench::text_row("false pos/neg across replicas",
                  std::to_string(fp) + "/" + std::to_string(fn),
                  "(paper: 0/0)");
  bench::sci_row("area-14 gap range (s)", {gap_min, gap_max},
                 "(paper: 141 s)");

  scenario::Scenario scenario;
  core::Satin probe(scenario.platform(), scenario.kernel(), scenario.tsp(),
                    core::SatinConfig{});
  bench::sci_row("guaranteed full-scan period (s)",
                 {probe.guaranteed_scan_period(hw::CoreType::kBigA57).sec()},
                 "(paper: ~152 s)");
  bench::json_row("bench_satin_detection", kReplicas,
                  runner.jobs_for(kReplicas), runner.wall_seconds());
  return 0;
}
