// Table II — Probing Threshold on Multi-Core.
//
// 50 probing windows per period in {8, 16, 30, 120, 300} s; the threshold
// of a window is the largest time difference the Time Comparer observed.
// Long windows use the calibrated closed-form sampler (simulating 23,700 s
// of 5 kHz prober rounds event-by-event buys no information — see
// attack/threshold_sampler.h); a short-period cross-validation against
// the fully event-driven prober is printed at the end.
//
// One trial per period (and per cross-validation window), fanned over
// --jobs=J workers. Per-period samplers draw from forks of the trial
// seed, so every row depends only on (root seed, period) — bit-identical
// output for any J.
#include <climits>

#include "attack/prober.h"
#include "attack/threshold_sampler.h"
#include "bench/common.h"
#include "scenario/scenario.h"
#include "sim/parallel.h"
#include "sim/stats.h"

namespace satin {
namespace {

struct PaperRow {
  double period;
  double avg, max, min;
};

const PaperRow kPaper[] = {
    {8, 2.61e-4, 7.76e-4, 1.07e-4},    {16, 3.54e-4, 1.38e-3, 1.31e-4},
    {30, 4.21e-4, 8.99e-4, 2.59e-4},   {120, 5.26e-4, 9.49e-4, 3.18e-4},
    {300, 6.61e-4, 1.77e-3, 4.18e-4},
};
constexpr std::size_t kPeriods = sizeof(kPaper) / sizeof(kPaper[0]);

// Everything one period contributes: the Table II row (all-core) plus the
// single-core comparison row.
struct PeriodStats {
  double avg = 0.0, max = 0.0, min = 0.0;
  double one_mean = 0.0, all_mean = 0.0;
};

}  // namespace
}  // namespace satin

int main(int argc, char** argv) {
  satin::bench::ObsGuard obs(argc, argv);
  const int jobs = satin::sim::TrialRunner::jobs_from_flag(
      satin::obs::take_whole_number(argc, argv, "jobs", 0, INT_MAX));
  if (satin::obs::reject_unconsumed_args(argc, argv)) return 2;
  using namespace satin;
  hw::TimingParams timing;

  sim::TrialRunnerOptions options;
  options.jobs = jobs;
  options.root_seed = 20190624;
  sim::TrialRunner runner(options);
  const std::vector<PeriodStats> stats = runner.run_collect(
      kPeriods, [&timing](const sim::TrialContext& ctx) {
        const double period = kPaper[ctx.index].period;
        sim::Rng base(ctx.seed);
        PeriodStats out;
        {
          attack::ThresholdSampler sampler(timing.cross_core,
                                           base.fork("table"), 6);
          sim::Accumulator acc;
          for (int i = 0; i < 50; ++i) {
            acc.add(sampler.sample_window_max_seconds(period));
          }
          out.avg = acc.mean();
          out.max = acc.max();
          out.min = acc.min();
        }
        attack::ThresholdSampler all(timing.cross_core, base.fork("all"), 6);
        attack::ThresholdSampler one(timing.cross_core, base.fork("one"), 1);
        sim::Accumulator all_acc, one_acc;
        for (int i = 0; i < 50; ++i) {
          all_acc.add(all.sample_window_max_seconds(period));
          one_acc.add(one.sample_window_max_seconds(period));
        }
        out.all_mean = all_acc.mean();
        out.one_mean = one_acc.mean();
        return out;
      });

  bench::heading("Table II: Probing Threshold on Multi-Core (s), 50 windows");
  bench::columns("Period", {"Average", "Max", "Min", "paper-avg", "paper-max",
                            "paper-min"});
  for (std::size_t i = 0; i < kPeriods; ++i) {
    bench::sci_row(
        std::to_string(static_cast<int>(kPaper[i].period)) + " s",
        {stats[i].avg, stats[i].max, stats[i].min, kPaper[i].avg,
         kPaper[i].max, kPaper[i].min});
  }

  bench::subheading("Single-core probing (§IV-B2: ~1/4 of all-core)");
  for (std::size_t i = 0; i < kPeriods; ++i) {
    bench::sci_row(std::to_string(static_cast<int>(kPaper[i].period)) + " s",
                   {stats[i].one_mean, stats[i].all_mean,
                    stats[i].one_mean / stats[i].all_mean},
                   "(single, all, ratio)");
  }

  bench::subheading("Cross-validation: event-driven prober, 5 x 8 s windows");
  const std::vector<double> window_max = runner.run_collect(
      std::size_t{5}, [](const sim::TrialContext& ctx) {
        scenario::ScenarioConfig config;
        config.platform.seed = 0xBE9C4 + static_cast<std::uint64_t>(ctx.index);
        scenario::Scenario s(config);
        attack::KProber prober(s.os(), attack::KProberConfig{});
        prober.deploy();
        s.run_for(sim::Duration::from_sec(8));
        if (auto* registry = obs::metrics()) {
          obs::snapshot_engine_metrics(s.engine(), *registry,
                                       /*include_wall=*/false);
        }
        return prober.max_benign_staleness_s();
      });
  sim::Accumulator event_acc;
  for (double m : window_max) event_acc.add(m);
  // The event-driven prober's staleness includes the wake-phase quantum
  // (a report ages up to one Tsleep = 2e-4 s between rounds); subtract it
  // to compare against the Comparer-difference statistic of Table II.
  bench::sci_row("event-driven avg(max)", {event_acc.mean()});
  bench::sci_row("  minus Tsleep quantum",
                 {event_acc.mean() - timing.kprober_sleep_s},
                 "(compare Table II 8 s avg)");
  bench::sci_row("analytic avg (8 s)", {[&] {
                   attack::ThresholdSampler sampler(timing.cross_core,
                                                    sim::Rng(20190624), 6);
                   sim::Accumulator acc;
                   for (int i = 0; i < 200; ++i) {
                     acc.add(sampler.sample_window_max_seconds(8.0));
                   }
                   return acc.mean();
                 }()});
  bench::json_row("bench_table2_probing_threshold", runner.trials_run(), jobs,
                  runner.wall_seconds());
  return 0;
}
