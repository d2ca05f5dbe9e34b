// Quickstart: assemble the simulated Juno platform, boot the rich OS,
// start SATIN in the secure world, plant a kernel rootkit, and watch the
// integrity checker catch it.
//
//   $ ./examples/quickstart [--flight=out.flt] [--metrics=out.metrics.json]
//                           [--faults=<spec>]
//   $ ./tools/satin_flightool chrome out.flt > out.json   # Perfetto view
#include <cstdio>
#include <string>

#include "attack/rootkit.h"
#include "core/satin.h"
#include "fault/injector.h"
#include "obs/session.h"
#include "os/system_map.h"
#include "scenario/scenario.h"

int main(int argc, char** argv) {
  using namespace satin;

  // 1. The whole platform in one line: 4x A53 + 2x A57, TrustZone worlds,
  //    generic timers, GIC, physical memory, booted lsk-4.4-like kernel.
  scenario::Scenario system;
  obs::ObsSession obs(argc, argv);
  const std::string faults = obs::take_flag(argc, argv, "faults");
  if (satin::obs::reject_unconsumed_args(argc, argv)) return 2;
  const auto injector = fault::install_from_spec(system.platform(), faults);
  std::printf("booted: %d cores, %zu-byte kernel, %d System.map regions\n",
              system.platform().num_cores(), system.kernel().size(),
              system.kernel().map().region_count());

  // 2. SATIN in the secure world: 19 introspection areas, tp = 8 s.
  core::Satin satin(system.platform(), system.kernel(), system.tsp(),
                    core::SatinConfig{});
  satin.start();
  std::printf("SATIN: %d areas (max %zu B), tp = %.1f s, full scan <= %.0f s\n",
              satin.area_count(),
              core::largest_area(satin.checker().areas()), satin.tp().sec(),
              satin.guaranteed_scan_period(hw::CoreType::kBigA57).sec());

  // 3. The normal world gets compromised: a persistent rootkit hijacks the
  //    GETTID syscall-table entry (8 bytes in area 14).
  std::printf("GETTID handler before attack: 0x%016llx\n",
              static_cast<unsigned long long>(
                  system.os().syscall_handler_address(os::kGettidSyscallNr)));
  attack::Rootkit rootkit(system.os(),
                          system.platform().rng().fork("quickstart"));
  rootkit.add_gettid_trace();
  rootkit.install();
  std::printf("GETTID handler after attack:  0x%016llx  (hijacked)\n",
              static_cast<unsigned long long>(
                  system.os().syscall_handler_address(os::kGettidSyscallNr)));

  // 4. Run simulated time until area 14 has been scanned.
  while (satin.checker().check_count(14) == 0) {
    system.run_for(sim::Duration::from_sec(5));
  }
  satin.stop();

  // 5. The digest mismatch raised an alarm.
  std::printf("\nafter %.0f simulated seconds and %llu introspection rounds:\n",
              system.now().sec(),
              static_cast<unsigned long long>(satin.rounds()));
  for (const auto& alarm : satin.checker().alarms()) {
    std::printf("  ALARM: area %d on core %d at t=%.3f s (digest %016llx)\n",
                alarm.area, alarm.core, alarm.when.sec(),
                static_cast<unsigned long long>(alarm.digest));
  }
  std::printf("%s\n", satin.alarm_count() > 0
                          ? "rootkit detected — quickstart OK"
                          : "NO ALARM — something is wrong");
  obs.flush(&system.engine());
  return satin.alarm_count() > 0 ? 0 : 1;
}
