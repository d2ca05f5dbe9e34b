// §IV-B1 / §IV-B2 — world-switch cost and attacker recovery time.
//
// 50 secure enter/leave round trips per core type (Ts_switch range
// 2.38e-6..3.60e-6 s) and 50 trace recoveries per core type
// (Tns_recover: A53 5.80e-3 s, A57 4.96e-3 s).
#include <chrono>

#include "attack/rootkit.h"
#include "bench/common.h"
#include "scenario/scenario.h"
#include "sim/stats.h"

int main(int argc, char** argv) {
  satin::bench::ObsGuard obs(argc, argv);
  if (satin::obs::reject_unconsumed_args(argc, argv)) return 2;
  using namespace satin;
  const auto bench_start = std::chrono::steady_clock::now();
  scenario::Scenario s;

  bench::heading("Ts_switch: context switch into the secure world (s)");
  for (hw::CoreId core : {0, 5}) {
    sim::Accumulator acc;
    sim::Time handler_start;
    s.tsp().install_timer_service(
        [&](std::shared_ptr<hw::SecureSession> session) {
          handler_start = session->handler_start();
          acc.add((session->handler_start() - session->entry_time()).sec());
          session->complete();
        });
    for (int i = 0; i < 50; ++i) {
      s.platform().timer().program_secure(core,
                                          s.now() + sim::Duration::from_ms(1));
      s.run_for(sim::Duration::from_ms(2));
    }
    bench::sci_row(s.platform().core(core).name() + " avg/max/min",
                   {acc.mean(), acc.max(), acc.min()});
  }
  bench::sci_row("paper range (both cores)", {2.38e-6, 3.60e-6},
                 "(min, max; 50 runs of the TSP dispatcher)");

  bench::heading("Tns_recover: full trace recovery (s), 50 runs");
  attack::Rootkit rootkit(s.os(), s.platform().rng().fork("bench-rootkit"));
  rootkit.add_gettid_trace();
  for (auto [type, name, paper] :
       {std::tuple{hw::CoreType::kLittleA53, "A53", 5.80e-3},
        std::tuple{hw::CoreType::kBigA57, "A57", 4.96e-3}}) {
    sim::Accumulator acc;
    for (int i = 0; i < 50; ++i) {
      rootkit.install();
      rootkit.begin_recovery(type, [] {});
      s.run_for(sim::Duration::from_ms(10));
      acc.add(rootkit.last_recovery_duration().sec());
    }
    bench::sci_row(std::string(name) + " avg/max/min",
                   {acc.mean(), acc.max(), acc.min()});
    bench::sci_row(std::string(name) + " paper avg", {paper});
  }
  bench::json_row("bench_tswitch_recovery", 4u * 50u, 1,
                  std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - bench_start)
                      .count());
  return 0;
}
