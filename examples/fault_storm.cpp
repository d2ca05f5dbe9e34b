// SATIN vs. TZ-Evader under a fault storm (Fig. 6 revisited, hostile HW).
//
// The same duel as satin_defense, but the platform misbehaves: secure
// timers misfire and drift, secure interrupts get lost and spuriously
// raised, world switches abort, scans see transient bit-flips and one
// core drops offline mid-run. SATIN's self-healing — missed-wake
// watchdog, bounded scan retry, wake-queue degradation — keeps the
// detection guarantee: every round over the tampered area still alarms
// (confirmed tamper), every injected bit-flip classifies transient, and
// no benign area is ever confirmed tampered.
//
//   $ ./examples/fault_storm [--replicas=N] [--jobs=J]
//                            [--flight=out.flt] [--faults=<spec>]
//
// Every fault, alarm, watchdog re-arm and core drop is a flight record:
// draw a --flight= recording with `satin_flightool chrome` (or list it
// with `satin_flightool dump`).
//
// Pass --faults=<spec> to replace the built-in storm (see src/fault/plan.h
// for the spec grammar). An empty --faults= reads the same as no flag and
// runs the built-in storm; --faults=seed=1, a plan with no fault spec,
// runs fault-free.
// --replicas=N repeats the duel under N storms (replica 0 is the storm of
// record; later replicas re-seed the storm and the platform), fanned over
// --jobs=J workers.
#include <climits>
#include <cstdint>
#include <cstdio>
#include <string>

#include "fault/injector.h"
#include "obs/session.h"
#include "scenario/experiments.h"
#include "sim/parallel.h"

namespace {

// Every class of fault the injector knows, overlapping across the run.
// Windows sit inside the ~170 s the 57-round duel takes at tp = 3 s.
// Replica i substitutes its own storm seed for the leading "seed=9".
constexpr char kDefaultStormBody[] =
    "timer-misfire@5s+30s:p=0.35,"
    "irq-lost@20s+40s:p=0.3,"
    "smc-fail@45s+30s:p=0.25,"
    "timer-drift@70s+40s:p=0.5:drift=800ms,"
    "irq-spurious@95s+20s:p=0.3:period=2s,"
    "bitflip@10s+130s:p=0.12,"
    "core-off@110s+25s:core=3";

struct ReplicaOutcome {
  satin::scenario::DuelReport report;
  std::uint64_t injected = 0;
  bool ok = false;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace satin;

  obs::ObsSession obs(argc, argv);
  const std::string faults = obs::take_flag(argc, argv, "faults");
  const auto jobs = obs::take_whole_number(argc, argv, "jobs", 0, INT_MAX);
  const std::size_t replicas =
      obs::take_whole_number(argc, argv, "replicas", 1, SIZE_MAX).value_or(1);
  if (obs::reject_unconsumed_args(argc, argv)) return 2;
  const bool custom_spec = !faults.empty();
  const std::string spec0 =
      custom_spec ? faults : "seed=9," + std::string(kDefaultStormBody);

  scenario::DuelConfig duel;
  duel.satin.tgoal_s = 57.0;  // tp = 3 s
  duel.rounds_target = 57;    // three full kernel cycles
  duel.satin.resilience.watchdog = true;
  duel.satin.resilience.max_scan_retries = 2;
  duel.satin.resilience.adapt_offline = true;

  std::printf("defender: SATIN + self-healing (watchdog, 2 scan retries,\n");
  std::printf("          core-offline degradation)\n");
  std::printf("attacker: TZ-Evader, same as in satin_defense\n");
  std::printf("faults:   %s\n",
              spec0.empty() ? "(none)"
                            : fault::FaultPlan::parse(spec0).to_string().c_str());
  if (replicas > 1) {
    std::printf("replicas: %zu (replica 0 above; others re-seeded)\n",
                static_cast<size_t>(replicas));
  }
  std::printf("\n");

  sim::TrialRunnerOptions options;
  options.jobs = sim::TrialRunner::jobs_from_flag(jobs);
  sim::TrialRunner runner(options);
  const std::vector<ReplicaOutcome> outcomes = runner.run_collect(
      replicas, [&](const sim::TrialContext& ctx) {
        scenario::ScenarioConfig scenario_config;
        std::string spec = spec0;
        if (ctx.index > 0) {
          // Later replicas vary both dice: the platform streams and (for
          // the built-in storm) the injector's private stream.
          scenario_config.platform.seed = ctx.seed;
          if (!custom_spec) {
            spec = "seed=" + std::to_string(9 + ctx.index) + "," +
                   std::string(kDefaultStormBody);
          }
        }
        const scenario::SingleDuelResult result =
            scenario::run_single_duel(scenario_config, duel, spec);
        ReplicaOutcome out;
        out.report = result.report;
        out.injected = result.faults_injected;
        out.ok = out.report.rounds >= duel.rounds_target &&
                 out.report.satin_always_caught() &&
                 out.report.benign_confirmed_alarms == 0;
        return out;
      });

  const ReplicaOutcome& first = outcomes[0];
  const scenario::DuelReport& report = first.report;
  std::printf("introspection rounds:           %llu (%llu full cycles)\n",
              static_cast<unsigned long long>(report.rounds),
              static_cast<unsigned long long>(report.full_cycles));
  std::printf("faults injected:                %llu\n",
              static_cast<unsigned long long>(first.injected));
  std::printf("watchdog re-arms:               %llu\n",
              static_cast<unsigned long long>(report.watchdog_fires));
  std::printf("scan retries:                   %llu\n",
              static_cast<unsigned long long>(report.scan_retries));
  std::printf("alarms: %llu confirmed, %llu transient\n",
              static_cast<unsigned long long>(report.confirmed_alarms),
              static_cast<unsigned long long>(report.transient_alarms));
  std::printf("checks of area %d (the hijack):  %llu, flagged %llu times\n",
              report.target_area,
              static_cast<unsigned long long>(report.target_area_rounds),
              static_cast<unsigned long long>(report.target_area_alarms));
  std::printf("benign areas confirmed tampered: %llu\n",
              static_cast<unsigned long long>(report.benign_confirmed_alarms));

  bool all_ok = true;
  if (replicas > 1) {
    std::printf("\nper-replica storms:\n");
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const ReplicaOutcome& o = outcomes[i];
      std::printf(
          "  replica %zu: %llu faults, area flagged %llu/%llu, %llu benign "
          "confirms -> %s\n",
          i, static_cast<unsigned long long>(o.injected),
          static_cast<unsigned long long>(o.report.target_area_alarms),
          static_cast<unsigned long long>(o.report.target_area_rounds),
          static_cast<unsigned long long>(o.report.benign_confirmed_alarms),
          o.ok ? "ok" : "BROKEN");
    }
  }
  for (const ReplicaOutcome& o : outcomes) all_ok = all_ok && o.ok;

  std::printf("\n%s\n",
              all_ok
                  ? "detection survived the storm: the rootkit was flagged on\n"
                    "every pass over its area, and no injected glitch was\n"
                    "mistaken for tampering."
                  : "unexpected: the storm broke the detection guarantee");
  std::fprintf(stderr,
               "BENCHJSON {\"bench\":\"fault_storm\",\"trials\":%zu,"
               "\"jobs\":%d,\"wall_s\":%.6f,\"trials_per_s\":%.3f}\n",
               runner.trials_run(), options.jobs, runner.wall_seconds(),
               runner.trials_per_second());
  obs.flush();
  return all_ok ? 0 : 1;
}
