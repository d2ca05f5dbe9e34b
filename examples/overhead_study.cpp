// Normal-world overhead study (§VI-B2, Fig. 7, abbreviated).
//
// Runs a subset of the mini-UnixBench suite with and without SATIN's
// self-activation and prints the per-program degradation. The two passes
// are independent simulations, so they fan out over --jobs=J workers as
// two trials; results and obs sinks merge back in submission order
// (baseline first), bit-identical for any J. The full-suite 1-task/6-task
// reproduction lives in bench/bench_fig7_overhead.
//
//   $ ./examples/overhead_study [--jobs=2] [--flight=out.flt]
//                               [--faults=<spec>]
#include <climits>
#include <cstdio>
#include <string>

#include "core/satin.h"
#include "fault/injector.h"
#include "obs/session.h"
#include "scenario/scenario.h"
#include "sim/parallel.h"
#include "workload/unixbench.h"

namespace {

std::vector<satin::workload::UnixBenchHarness::Result> run(
    bool with_satin, const std::string& faults_spec) {
  using namespace satin;
  scenario::Scenario system;
  // Each pass gets its own platform, so each arms its own injector (the
  // same plan both times — faults hit the two runs identically).
  const auto injector =
      fault::install_from_spec(system.platform(), faults_spec);
  core::SatinConfig config;
  config.tp_s = 0.8;  // aggressive wake-ups so a short window suffices
  core::Satin satin(system.platform(), system.kernel(), system.tsp(), config);
  if (with_satin) satin.start();
  workload::UnixBenchHarness harness(system.os());
  auto results = harness.run_suite(sim::Duration::from_sec(12), /*copies=*/1);
  if (auto* registry = obs::metrics()) {
    obs::snapshot_engine_metrics(system.engine(), *registry,
                                 /*include_wall=*/false);
  }
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace satin;
  // Both runs share one flight recording, each pass bracketed as its own
  // trial (merge order: baseline, then SATIN — the trial submission
  // order); `satin_flightool chrome` draws each as its own process.
  obs::ObsSession obs(argc, argv);
  const std::string faults = obs::take_flag(argc, argv, "faults");
  const auto jobs = obs::take_whole_number(argc, argv, "jobs", 0, INT_MAX);
  if (satin::obs::reject_unconsumed_args(argc, argv)) return 2;
  std::printf("running mini-UnixBench twice (without / with SATIN)...\n\n");
  sim::TrialRunnerOptions options;
  options.jobs = sim::TrialRunner::jobs_from_flag(jobs);
  sim::TrialRunner runner(options);
  const auto passes = runner.run_collect(
      std::size_t{2}, [&faults](const sim::TrialContext& ctx) {
        return run(/*with_satin=*/ctx.index == 1, faults);
      });
  const auto rows = workload::compare_runs(passes[0], passes[1]);
  std::printf("%-20s %14s %14s %10s\n", "program", "baseline", "with SATIN",
              "degrad %");
  for (const auto& r : rows) {
    std::printf("%-20s %14.1f %14.1f %9.3f%%\n", r.name.c_str(),
                r.baseline_score, r.satin_score, 100.0 * r.degradation);
  }
  std::printf("%-20s %29s %9.3f%%\n", "OVERALL", "",
              100.0 * workload::mean_degradation(rows));
  std::printf(
      "\nthe rich OS never fully stops: one core pays a few ms per round\n"
      "while the other five keep running (paper: 0.711%% / 0.848%% overall,\n"
      "worst bars file copy 256B and context switching).\n");
  std::fprintf(stderr,
               "BENCHJSON {\"bench\":\"overhead_study\",\"trials\":%zu,"
               "\"jobs\":%d,\"wall_s\":%.6f,\"trials_per_s\":%.3f}\n",
               runner.trials_run(), options.jobs, runner.wall_seconds(),
               runner.trials_per_second());
  obs.flush();
  return 0;
}
