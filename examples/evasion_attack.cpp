// TZ-Evader vs. a state-of-the-art periodic checker (§III/§IV).
//
// The defender is a PKM-style whole-kernel measurement on a random core
// at randomized times — the strongest pre-SATIN configuration. TZ-Evader
// senses every secure-world entry through the core-availability side
// channel and hides its traces while the scan is still crawling toward
// them. Record the play-by-play with --flight= and draw it with
// `satin_flightool chrome` (or list it with `satin_flightool dump`).
//
//   $ ./examples/evasion_attack [--flight=out.flt] [--faults=<spec>]
#include <cstdio>
#include <string>

#include "core/satin.h"
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
  duel.satin = core::make_pkm_baseline_config(/*period_s=*/4.0,
                                              /*random_core=*/true,
                                              /*random_time=*/true);
  duel.rounds_target = 15;

  std::printf("defender: whole-kernel hash every ~4 s, random core,\n");
  std::printf("          randomized wake time (pre-SATIN state of the art)\n");
  std::printf("attacker: TZ-Evader = GETTID rootkit + KProber-II\n");
  std::printf("          (SCHED_FIFO prio 99, threshold 1.8e-3 s)\n\n");

  const auto report = scenario::run_duel(system, duel);

  std::printf("introspection rounds:        %llu\n",
              static_cast<unsigned long long>(report.rounds));
  std::printf("rounds noticed by prober:    %llu (FN: %llu, FP: %llu)\n",
              static_cast<unsigned long long>(report.prober_detections),
              static_cast<unsigned long long>(report.false_negatives),
              static_cast<unsigned long long>(report.false_positives));
  std::printf("evasions (hide-then-rearm):  %llu\n",
              static_cast<unsigned long long>(report.evasions_started));
  std::printf("alarms raised:               %llu\n",
              static_cast<unsigned long long>(report.alarms));
  std::printf("\n%s\n",
              report.evader_always_escaped()
                  ? "the attacker evaded every scan: the hijacked entry sits "
                    "~9.5 MB\ninto the pass, but the traces are gone ~8 ms "
                    "after the scan starts.\n(~90% of the kernel is "
                    "unprotected this way — §IV-C)"
                  : "unexpected: the baseline caught the evader");
  obs.flush(&system.engine());
  return report.evader_always_escaped() ? 0 : 1;
}
