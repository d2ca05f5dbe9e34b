// Ablation — SATIN's randomization knobs (§V-C, §V-D).
//
// (a) Strictly periodic wake-ups fall to a *prediction* attack that needs
//     no side channel at all.
// (b) Randomized wake-ups defeat the same oracle schedule.
// (c) Pinning introspection to one core quarters the attacker's probing
//     threshold (faster, more reliable detection of the defender).
//
// The two oracle duels and the two threshold periods each run as an
// independent trial over --jobs=J workers; seeds are fixed per trial, so
// the output is bit-identical for any J.
#include <climits>

#include "attack/predictor.h"
#include "attack/threshold_sampler.h"
#include "bench/common.h"
#include "core/satin.h"
#include "scenario/scenario.h"
#include "sim/parallel.h"
#include "sim/stats.h"

namespace satin {
namespace {

// An oracle attacker that memorized the period: hides 20 ms before every
// k*period mark, re-arms 200 ms after. Returns alarms/rounds.
std::pair<std::uint64_t, std::uint64_t> oracle_attack(bool randomize_wake,
                                                      int seconds) {
  scenario::Scenario s;
  core::SatinConfig config;
  config.multi_core = false;
  config.fixed_core = 5;
  config.randomize_wake = randomize_wake;
  config.tp_s = 1.0;
  core::Satin satin(s.platform(), s.kernel(), s.tsp(), config);
  satin.start();
  attack::PredictionConfig prediction;
  prediction.horizon_rounds = seconds;
  attack::PeriodicPredictionAttacker attacker(s.os(), prediction);
  attacker.deploy();
  s.run_for(sim::Duration::from_sec(seconds + 1));
  satin.stop();
  if (auto* registry = obs::metrics()) {
    obs::snapshot_engine_metrics(s.engine(), *registry,
                                 /*include_wall=*/false);
  }
  return {satin.alarm_count(), satin.rounds()};
}

struct ThresholdRow {
  double mean_one = 0.0;
  double mean_all = 0.0;
};

}  // namespace
}  // namespace satin

int main(int argc, char** argv) {
  satin::bench::ObsGuard obs(argc, argv);
  const int jobs = satin::sim::TrialRunner::jobs_from_flag(
      satin::obs::take_whole_number(argc, argv, "jobs", 0, INT_MAX));
  if (satin::obs::reject_unconsumed_args(argc, argv)) return 2;
  using namespace satin;
  bench::heading("Ablation: randomization knobs");

  sim::TrialRunnerOptions options;
  options.jobs = jobs;
  sim::TrialRunner runner(options);

  // The randomized run is longer so area 14 gets several checks.
  const auto duels = runner.run_collect(
      std::size_t{2}, [](const sim::TrialContext& ctx) {
        return ctx.index == 0 ? oracle_attack(false, 60)
                              : oracle_attack(true, 150);
      });
  const auto& periodic = duels[0];
  const auto& randomized = duels[1];
  bench::subheading("(a)/(b) prediction attack vs wake-up policy");
  bench::text_row("periodic: alarms/rounds",
                  std::to_string(periodic.first) + "/" +
                      std::to_string(periodic.second),
                  "(predictable => evaded)");
  bench::text_row("randomized: alarms/rounds",
                  std::to_string(randomized.first) + "/" +
                      std::to_string(randomized.second),
                  "(oracle schedule misfires)");

  bench::subheading("(c) probing threshold: fixed core vs all cores");
  hw::TimingParams timing;
  const double periods[] = {8.0, 120.0};
  const auto threshold_rows = runner.run_collect(
      std::size_t{2}, [&timing, &periods](const sim::TrialContext& ctx) {
        const double period = periods[ctx.index];
        attack::ThresholdSampler all(timing.cross_core, sim::Rng(3), 6);
        attack::ThresholdSampler one(timing.cross_core, sim::Rng(3), 1);
        sim::Accumulator acc_all, acc_one;
        for (int i = 0; i < 200; ++i) {
          acc_all.add(all.sample_window_max_seconds(period));
          acc_one.add(one.sample_window_max_seconds(period));
        }
        return ThresholdRow{acc_one.mean(), acc_all.mean()};
      });
  for (std::size_t i = 0; i < 2; ++i) {
    bench::sci_row(
        "period " + std::to_string(static_cast<int>(periods[i])) + " s",
        {threshold_rows[i].mean_one, threshold_rows[i].mean_all,
         threshold_rows[i].mean_one / threshold_rows[i].mean_all},
        "(fixed-core, all-core, ratio; paper: ~1/4)");
  }
  std::printf(
      "\na predictable CPU affinity hands the attacker a 4x sharper\n"
      "side channel (§IV-B2) — SATIN therefore randomizes the core, the\n"
      "wake time AND the area (§V).\n");
  bench::json_row("bench_ablation_randomization", runner.trials_run(), jobs,
                  runner.wall_seconds());
  return 0;
}
