// Fig. 7 — SATIN Overhead on mini-UnixBench.
//
// Runs the 12-program suite with and without SATIN's self-activation, in
// the paper's 1-task and 6-task settings, and prints the normalized
// degradation per program plus the suite average. The paper reports
// 0.711% (1-task) / 0.848% (6-task) overall, with `file copy 256B`
// (3.556%) and `context switching` (3.912%) as the worst bars. SATIN runs
// with an aggressive wake-up period here so the measurement window stays
// short; see EXPERIMENTS.md for the calibration discussion.
#include <chrono>

#include "bench/common.h"
#include "core/satin.h"
#include "scenario/scenario.h"
#include "workload/unixbench.h"

namespace satin {
namespace {

std::vector<workload::UnixBenchHarness::Result> run_suite(bool with_satin,
                                                          int copies) {
  scenario::Scenario s;
  core::SatinConfig config;
  config.tp_s = 0.8;  // machine round every 0.8 s => per-core ~4.8 s
  core::Satin satin(s.platform(), s.kernel(), s.tsp(), config);
  if (with_satin) satin.start();
  // Let the wake-up queue settle past the boot burst (all six cores take
  // their first round within [0, 2*tp]) so measurement windows see the
  // steady per-core intrusion rate.
  s.run_for(sim::Duration::from_sec(5));
  workload::UnixBenchHarness harness(s.os());
  return harness.run_suite(sim::Duration::from_sec(30), copies);
}

void run_case(int copies, double paper_overall) {
  const auto base = run_suite(false, copies);
  const auto with = run_suite(true, copies);
  const auto rows = workload::compare_runs(base, with);
  bench::subheading(std::to_string(copies) + "-task");
  bench::columns("Program", {"baseline", "with-SATIN", "degrad-%"});
  for (const auto& r : rows) {
    bench::sci_row(r.name,
                   {r.baseline_score, r.satin_score, 100.0 * r.degradation});
  }
  bench::sci_row("OVERALL (mean %)",
                 {100.0 * workload::mean_degradation(rows)},
                 "(paper: " + std::to_string(paper_overall) + "%)");
}

}  // namespace
}  // namespace satin

int main(int argc, char** argv) {
  satin::bench::ObsGuard obs(argc, argv);
  if (satin::obs::reject_unconsumed_args(argc, argv)) return 2;
  using namespace satin;
  bench::heading("Fig. 7: SATIN overhead, mini-UnixBench");
  const auto bench_start = std::chrono::steady_clock::now();
  run_case(1, 0.711);
  run_case(6, 0.848);
  std::printf(
      "\npaper shape: sub-1%% overall; worst bars are file copy 256B\n"
      "(3.556%%) and context switching (3.912%%).\n");
  // 2 cases x 2 suite runs x 12 programs = the unit of repeated work.
  bench::json_row("bench_fig7_overhead", 2u * 2u * 12u, 1,
                  std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - bench_start)
                      .count());
  return 0;
}
