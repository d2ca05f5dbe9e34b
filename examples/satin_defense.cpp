// SATIN vs. TZ-Evader (§V/§VI): the same attacker that defeats the
// periodic baseline loses against SATIN's divide-and-conquer.
//
// Every wake-up scans one sub-bound area on a randomly assigned core at a
// randomized time. The evader still notices each entry — but by the time
// its recovery finishes (~8 ms), the area containing its traces has been
// fully hashed. Record the play-by-play with --flight= and draw it with
// `satin_flightool chrome` (or list it with `satin_flightool dump`).
//
//   $ ./examples/satin_defense [--flight=out.flt] [--faults=<spec>]
#include <cstdio>
#include <string>

#include "fault/injector.h"
#include "obs/session.h"
#include "scenario/experiments.h"

int main(int argc, char** argv) {
  using namespace satin;

  scenario::Scenario system;
  obs::ObsSession obs(argc, argv);
  const std::string faults = obs::take_flag(argc, argv, "faults");
  if (satin::obs::reject_unconsumed_args(argc, argv)) return 2;
  const auto injector = fault::install_from_spec(system.platform(), faults);
  scenario::DuelConfig duel;
  duel.satin.tgoal_s = 57.0;  // tp = 3 s for a brisk demo
  duel.rounds_target = 57;    // three full kernel cycles

  std::printf("defender: SATIN — 19 areas (all under the 1,218,351 B race\n");
  std::printf("          bound), random area / random core / random time\n");
  std::printf("attacker: TZ-Evader, same as against the baseline\n\n");

  const auto report = scenario::run_duel(system, duel);

  std::printf("introspection rounds:          %llu (%llu full kernel cycles)\n",
              static_cast<unsigned long long>(report.rounds),
              static_cast<unsigned long long>(report.full_cycles));
  std::printf("rounds noticed by prober:      %llu (FN: %llu, FP: %llu)\n",
              static_cast<unsigned long long>(report.prober_detections),
              static_cast<unsigned long long>(report.false_negatives),
              static_cast<unsigned long long>(report.false_positives));
  std::printf("evasion attempts:              %llu\n",
              static_cast<unsigned long long>(report.evasions_started));
  std::printf("checks of area 14 (the hijack): %llu, detected %llu times\n",
              static_cast<unsigned long long>(report.target_area_rounds),
              static_cast<unsigned long long>(report.target_area_alarms));
  std::printf("avg gap between area-14 checks: %.0f s\n",
              report.avg_target_gap_s);
  std::printf("\n%s\n",
              report.satin_always_caught()
                  ? "every scan of area 14 caught the rootkit: the evader's\n"
                    "recovery always lost the race (§VI-B1: 'all the recovery "
                    "efforts fail')."
                  : "unexpected: the evader escaped SATIN");
  obs.flush(&system.engine());
  return report.satin_always_caught() ? 0 : 1;
}
