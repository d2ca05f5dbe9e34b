// §IV-C — Race Condition Analysis.
//
// Reproduces the closed-form bound (S <= 1,218,351 bytes; ~90% of the
// 11,916,240-byte kernel unprotected by a whole-kernel pass), a Monte
// Carlo over sampled timings, and event-driven spot duels against the
// PKM baseline across a ladder of trace depths: hijacks deep in the
// kernel (the GETTID entry among them) escape; traces inside the first
// ~1.2 MB are caught.
//
// Monte-Carlo batches and duels fan out over --jobs=J workers through
// sim::TrialRunner; the printed rows are bit-identical for any J.
#include <climits>
#include <string>
#include <vector>

#include "attack/evader.h"
#include "bench/common.h"
#include "core/race_model.h"
#include "core/satin.h"
#include "scenario/experiments.h"
#include "sim/parallel.h"
#include "sim/stats.h"

namespace satin {
namespace {

// Event-driven duel with the rootkit's trace forced to `offset`: a bare
// evader (KProber + a rootkit whose single trace sits at the probe
// offset) against the PKM baseline. run() plays six baseline rounds and
// reports whether any of them alarmed.
class SpotDuelTrial {
 public:
  explicit SpotDuelTrial(std::size_t offset)
      : baseline_(s_.platform(), s_.kernel(), s_.tsp(),
                  core::make_pkm_baseline_config(1.0, true, true)),
        kit_(s_.os(), s_.platform().rng().fork("probe-kit")),
        prober_(s_.os(), attack::KProberConfig{}) {
    baseline_.checker().authorize_boot_state();
    prober_.set_on_detect([this](hw::CoreId, sim::Time, sim::Duration) {
      if (kit_.installed() && !kit_.recovering()) {
        kit_.begin_recovery(hw::CoreType::kLittleA53, [this] {
          // Recovery can outlive a short stay; re-arm once the coast clears.
          if (!prober_.any_flagged() && !kit_.installed()) kit_.install();
        });
      }
    });
    prober_.set_on_clear([this](hw::CoreId, sim::Time) {
      // Re-arm only once NO core looks secure-held: overlapping rounds on
      // other cores may still be scanning.
      if (!prober_.any_flagged() && !kit_.installed() && !kit_.recovering()) {
        kit_.install();
      }
    });
    prober_.deploy();
    s_.run_for(sim::Duration::from_ms(10));  // prober warm-up

    attack::TraceSpec trace;
    trace.name = "probe";
    trace.offset = offset;
    for (int i = 0; i < 8; ++i) {
      const auto b =
          s_.platform().memory().read(offset + static_cast<std::size_t>(i));
      trace.benign.push_back(b);
      trace.malicious.push_back(static_cast<std::uint8_t>(~b));
    }
    kit_.add_trace(trace);
    baseline_.start();
    kit_.install();
  }

  bool run() {
    while (baseline_.rounds() < 6) s_.run_for(sim::Duration::from_sec(1));
    baseline_.stop();
    if (auto* registry = obs::metrics()) {
      obs::snapshot_engine_metrics(s_.engine(), *registry,
                                   /*include_wall=*/false);
    }
    return baseline_.alarm_count() > 0;
  }

 private:
  scenario::Scenario s_;
  core::Satin baseline_;
  attack::Rootkit kit_;
  attack::KProber prober_;
};

// One Monte-Carlo batch: draws per batch from a seed that depends only on
// (root seed, batch index), so the total is independent of --jobs.
int mc_escapes(std::uint64_t seed, int draws,
               const hw::TimingParams& timing) {
  sim::Rng rng(seed);
  int escapes = 0;
  for (int i = 0; i < draws; ++i) {
    core::RaceParams p;
    p.ts_switch_s = timing.sample_switch(rng).sec();
    // Random introspecting core: 4 A53 + 2 A57.
    const bool big = rng.index(6) >= 4;
    p.ts_1byte_s = (big ? timing.hash_per_byte_a57 : timing.hash_per_byte_a53)
                       .sample_seconds(rng);
    p.tns_sched_s = timing.kprober_sleep_s;
    p.tns_threshold_s = timing.cross_core.worst_case_threshold_s;
    p.tns_recover_s = timing.recover_a53.sample_seconds(rng);
    // Attack bytes "appear randomly in the kernel".
    const auto offset = static_cast<std::size_t>(rng.uniform_int(0, 11'916'239));
    if (core::attacker_escapes(p, offset)) ++escapes;
  }
  return escapes;
}

}  // namespace
}  // namespace satin

int main(int argc, char** argv) {
  satin::bench::ObsGuard obs(argc, argv);
  const int jobs = satin::sim::TrialRunner::jobs_from_flag(
      satin::obs::take_whole_number(argc, argv, "jobs", 0, INT_MAX));
  if (satin::obs::reject_unconsumed_args(argc, argv)) return 2;
  using namespace satin;
  hw::TimingParams timing;

  bench::heading("Race-condition analysis (Eq. 1 / Eq. 2, §IV-C)");
  const core::RaceParams worst = core::worst_case_params(timing);
  const std::size_t bound = core::max_safe_area_bytes(worst);
  bench::text_row("S bound (bytes)", std::to_string(bound),
                  "(paper: 1218351)");
  bench::text_row("kernel size (bytes)", "11916240");
  bench::sci_row("unprotected fraction",
                 {core::unprotected_fraction(worst, 11'916'240)},
                 "(paper: ~90%)");

  bench::subheading("Monte Carlo over sampled timings (100k draws)");
  constexpr int kBatches = 100;
  constexpr int kDrawsPerBatch = 1'000;
  sim::TrialRunnerOptions mc_options;
  mc_options.jobs = jobs;
  mc_options.root_seed = 11;
  sim::TrialRunner mc_runner(mc_options);
  const std::vector<int> batch_escapes = mc_runner.run_collect(
      kBatches, [&timing](const sim::TrialContext& ctx) {
        return mc_escapes(ctx.seed, kDrawsPerBatch, timing);
      });
  int escapes = 0;
  for (int e : batch_escapes) escapes += e;
  const int draws = kBatches * kDrawsPerBatch;
  bench::sci_row("evasion success vs full-kernel pass",
                 {static_cast<double>(escapes) / draws}, "(paper: ~0.90)");

  bench::subheading("Event-driven spot duels vs PKM baseline");
  // A ladder of trace depths straddling the Eq.-2 bound; every duel is an
  // independent trial (own Scenario), fanned over the worker pool.
  struct Probe {
    std::size_t offset;
    const char* note;
  };
  const Probe probes[] = {
      {9'558'264, "(paper: escapes — gettid, outside the first ~1.2 MB)"},
      {6'000'000, "(deep half of the kernel)"},
      {3'000'000, "(beyond the bound)"},
      {2'000'000, "(beyond the bound)"},
      {1'500'000, "(just beyond the bound)"},
      {1'100'000, "(just inside the bound)"},
      {400'000, "(inside the protected prefix)"},
      {100'000, "(near the kernel base)"},
  };
  constexpr std::size_t kProbeCount = sizeof(probes) / sizeof(probes[0]);
  sim::TrialRunnerOptions duel_options;
  duel_options.jobs = jobs;
  sim::TrialRunner duel_runner(duel_options);
  // char, not bool: trials fill their slots concurrently.
  const std::vector<char> caught = duel_runner.run_collect(
      kProbeCount, [&probes](const sim::TrialContext& ctx) {
        SpotDuelTrial duel(probes[ctx.index].offset);
        return static_cast<char>(duel.run());
      });
  for (std::size_t i = 0; i < kProbeCount; ++i) {
    bench::text_row("trace at " + std::to_string(probes[i].offset),
                    caught[i] ? "CAUGHT" : "escapes", probes[i].note);
  }

  bench::json_row("bench_race_analysis",
                  mc_runner.trials_run() + duel_runner.trials_run(), jobs,
                  mc_runner.wall_seconds() + duel_runner.wall_seconds());
  return 0;
}
