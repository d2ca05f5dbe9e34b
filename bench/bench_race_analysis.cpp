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
// sim::TrialRunner; the printed rows are bit-identical for any J (and,
// for the spot duels, for any --batch=K lockstep shard size).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "attack/evader.h"
#include "bench/common.h"
#include "core/race_model.h"
#include "core/satin.h"
#include "scenario/experiments.h"
#include "sim/batch.h"
#include "sim/fork.h"
#include "sim/parallel.h"
#include "sim/stats.h"

namespace satin {
namespace {

// Event-driven duel with the rootkit's trace forced to `offset`: a bare
// evader (KProber + a rootkit whose single trace sits at the probe
// offset) against the PKM baseline. Decomposed as a LockstepTrial so a
// BatchRunner can interleave it with shard-mates; the --batch=1 path
// drives the very same class to completion inline.
class SpotDuelTrial final : public sim::LockstepTrial {
 public:
  // Staged construction for COW fork branching (sim/fork.h): the
  // constructor runs everything a branch can share — trusted boot, prober
  // deployment and warm-up — and engage() arms the branch-specific trace
  // and starts both sides. None of the moved steps draws from the
  // platform RNG (trace bytes are plain memory reads), so staged ctor +
  // immediate engage() is draw-for-draw identical to the old one-shot
  // constructor (the fork-identity CI gate diffs exactly this).
  SpotDuelTrial()
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
  }

  // One-shot path (the pre-fork run of record): optional idle engagement
  // ramp (--ramp-s; the prober stays deployed, nothing armed), then
  // engage immediately.
  SpotDuelTrial(std::size_t offset, char* caught, double ramp_s = 0.0)
      : SpotDuelTrial() {
    if (ramp_s > 0.0) s_.run_for(sim::Duration::from_sec_f(ramp_s));
    engage(offset, caught);
  }

  // Arms the rootkit trace at `offset` and starts the duel; call once.
  void engage(std::size_t offset, char* caught) {
    caught_ = caught;
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

  bool done() const override { return baseline_.rounds() >= 6; }
  void advance(sim::Duration quantum) override { s_.run_for(quantum); }
  // advance() IS engine run_until (Scenario::run_for), with no
  // request_stop use, so the fused shard loop may drive it directly.
  sim::Engine* fused_engine() override { return &s_.engine(); }
  void finish() override {
    baseline_.stop();
    if (auto* registry = obs::metrics()) {
      obs::snapshot_engine_metrics(s_.engine(), *registry,
                                   /*include_wall=*/false);
    }
    if (caught_ != nullptr) {
      *caught_ = static_cast<char>(baseline_.alarm_count() > 0);
    }
  }

 private:
  scenario::Scenario s_;
  core::Satin baseline_;
  attack::Rootkit kit_;
  attack::KProber prober_;
  char* caught_ = nullptr;
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
  using namespace satin;
  // Local flag: --ramp-s=<sim seconds> of idle engagement ramp before
  // each spot duel arms (prober deployed, nothing installed). Applied
  // identically on every execution path, so forked-vs-unforked stays an
  // apples-to-apples comparison; the default keeps today's output.
  double ramp_s = 0.0;
  {
    int out = 1;
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], "--ramp-s=", 9) == 0) {
        ramp_s = std::atof(argv[i] + 9);
        if (!(ramp_s >= 0.0)) ramp_s = 0.0;
        continue;
      }
      argv[out++] = argv[i];
    }
    argc = out;
  }
  hw::TimingParams timing;
  const int jobs = obs.jobs(/*fallback=*/1);

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
  mc_options.flight_ring = obs.flight_ring();
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
  duel_options.flight_ring = obs.flight_ring();
  std::vector<char> caught(kProbeCount, 0);
  std::size_t duel_trials = 0;
  double duel_wall_s = 0.0;
  const int batch = obs.batch(/*fallback=*/1);
  const int branches = obs.branches(/*fallback=*/0);
  if (branches > 0 && batch > 1) {
    std::fprintf(stderr,
                 "bench_race_analysis: --branches and --batch are mutually "
                 "exclusive\n");
    return 2;
  }
  if (branches > 0) {
    // COW fork ladder (sim/fork.h): probes grouped into branch groups.
    // --fork-prefix=0 is the byte-identity oracle (each child replays its
    // duel from scratch under fresh sinks); --fork-prefix>0 builds ONE
    // staged trial per group — boot, prober deployment, warm-up, ramp —
    // and fork()s it, each child engaging its own trace offset against
    // the inherited copy-on-write image.
    const double prefix_s = obs.fork_prefix_s();
    const sim::TrialSeedSeq seeds(duel_options.root_seed);
    const auto fork_t0 = std::chrono::steady_clock::now();
    for (std::size_t base = 0; base < kProbeCount;
         base += static_cast<std::size_t>(branches)) {
      const std::size_t count = std::min(static_cast<std::size_t>(branches),
                                         kProbeCount - base);
      sim::ForkServerOptions fork_options;
      fork_options.jobs = jobs;
      fork_options.flight_ring = obs.flight_ring();
      fork_options.index_base = base;
      fork_options.marker_seed = [&seeds](std::size_t global) {
        return seeds.seed_for(global);
      };
      std::vector<std::string> payloads;
      if (prefix_s <= 0.0) {
        sim::ForkServer server(fork_options);
        payloads = server.run_collect(count, [&](std::size_t branch) {
          char c = 0;
          SpotDuelTrial trial(probes[base + branch].offset, &c, ramp_s);
          while (!trial.done()) trial.advance(sim::Duration::from_sec(1));
          trial.finish();
          return std::string(c ? "1" : "0");
        });
      } else {
        fork_options.inherit_sinks = true;
        sim::ForkServer server(fork_options);
        std::unique_ptr<obs::MetricsRegistry> group_metrics;
        std::unique_ptr<obs::FlightRecorder> group_flight;
        if (obs::metrics() != nullptr) {
          group_metrics = std::make_unique<obs::MetricsRegistry>();
        }
        if (obs::flight() != nullptr) {
          obs::FlightRecorderOptions flight_options;
          flight_options.ring = obs.flight_ring();
          group_flight =
              std::make_unique<obs::FlightRecorder>(flight_options);
        }
        std::vector<sim::ForkOutcome> outcomes;
        {
          sim::TrialObsScope scope(group_metrics.get(), nullptr,
                                   group_flight.get());
          SpotDuelTrial trial;
          if (ramp_s > 0.0) {
            trial.advance(sim::Duration::from_sec_f(ramp_s));
          }
          outcomes = server.run(count, [&](std::size_t branch) {
            char c = 0;
            trial.engage(probes[base + branch].offset, &c);
            while (!trial.done()) trial.advance(sim::Duration::from_sec(1));
            trial.finish();
            return std::string(c ? "1" : "0");
          });
        }
        // Group scope dropped: the merge targets the session sinks.
        server.merge_obs();
        for (const sim::ForkOutcome& outcome : outcomes) {
          if (!outcome.ok) {
            std::fprintf(stderr, "bench_race_analysis: %s\n",
                         outcome.error.c_str());
            return 1;
          }
        }
        payloads.reserve(outcomes.size());
        for (sim::ForkOutcome& outcome : outcomes) {
          payloads.push_back(std::move(outcome.payload));
        }
      }
      for (std::size_t branch = 0; branch < payloads.size(); ++branch) {
        caught[base + branch] = static_cast<char>(payloads[branch] == "1");
      }
    }
    duel_trials = kProbeCount;
    duel_wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - fork_t0)
                      .count();
  } else if (batch > 1) {
    // Lockstep shards; output rows are byte-identical to the unsharded
    // path below for every K.
    sim::BatchRunnerOptions batch_options;
    batch_options.batch = static_cast<std::size_t>(batch);
    batch_options.fused = obs.fused();
    batch_options.runner = duel_options;
    sim::BatchRunner duel_runner(batch_options);
    duel_runner.run(kProbeCount, [&probes, &caught, ramp_s](
                                     const sim::TrialContext& ctx) {
      return std::make_unique<SpotDuelTrial>(probes[ctx.index].offset,
                                             &caught[ctx.index], ramp_s);
    });
    duel_trials = duel_runner.trials_run();
    duel_wall_s = duel_runner.wall_seconds();
  } else {
    sim::TrialRunner duel_runner(duel_options);
    duel_runner.run(kProbeCount, [&probes, &caught, ramp_s](
                                     const sim::TrialContext& ctx) {
      SpotDuelTrial trial(probes[ctx.index].offset, &caught[ctx.index],
                          ramp_s);
      while (!trial.done()) trial.advance(sim::Duration::from_sec(1));
      trial.finish();
    });
    duel_trials = duel_runner.trials_run();
    duel_wall_s = duel_runner.wall_seconds();
  }
  for (std::size_t i = 0; i < kProbeCount; ++i) {
    bench::text_row("trace at " + std::to_string(probes[i].offset),
                    caught[i] ? "CAUGHT" : "escapes", probes[i].note);
  }

  bench::json_row("bench_race_analysis", mc_runner.trials_run() + duel_trials,
                  jobs, mc_runner.wall_seconds() + duel_wall_s);
  return 0;
}
