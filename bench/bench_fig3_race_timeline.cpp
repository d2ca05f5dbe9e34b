// Fig. 3 — "Race Condition Between Two Worlds on Multi-Core System".
//
// The paper's figure is a timing diagram; this bench prints a *measured*
// instance of every event on it, for both outcomes of the race:
//
//   secure world:  t_start --Ts_switch--> scan --S*Ts_1byte--> touches
//                  the first malicious byte
//   normal world:  t_start --Tns_delay--> realizes a core entered the
//                  secure world --Tns_recover--> traces are benign
//
// Against SATIN's area 14 the touch beats the recovery (alarm); against
// the PKM whole-kernel pass the recovery beats the touch (evasion) —
// Eq. 1 decided both, on the same attacker.
#include <chrono>
#include <vector>

#include "attack/prober.h"
#include "attack/rootkit.h"
#include "bench/common.h"
#include "core/satin.h"
#include "os/system_map.h"
#include "scenario/scenario.h"

namespace satin {
namespace {

struct Timeline {
  sim::Time t_start;        // secure timer interrupt (core frozen)
  sim::Time handler_start;  // after Ts_switch
  sim::Time detected;       // prober flags the core
  sim::Time recovered;      // last malicious byte restored
  sim::Time touch;          // scan cursor reaches the hijacked entry
  sim::Time scan_end;
  bool alarm = false;
  bool have_detection = false;
  bool have_recovery = false;
};

sim::Time first_at_or_after(const std::vector<sim::Time>& events,
                            sim::Time from, bool* found) {
  for (const sim::Time& t : events) {
    if (t >= from) {
      *found = true;
      return t;
    }
  }
  *found = false;
  return sim::Time::zero();
}

Timeline run_one_round(const core::SatinConfig& satin_config) {
  scenario::Scenario s;
  core::Satin satin(s.platform(), s.kernel(), s.tsp(), satin_config);
  satin.checker().authorize_boot_state();

  attack::Rootkit kit(s.os(), s.platform().rng().fork("fig3-kit"));
  kit.add_gettid_trace();
  Timeline tl;
  std::vector<sim::Time> detections;
  std::vector<sim::Time> recoveries;
  attack::KProber prober(s.os(), attack::KProberConfig{});
  prober.set_on_detect([&](hw::CoreId, sim::Time when, sim::Duration) {
    detections.push_back(when);
    if (kit.installed() && !kit.recovering()) {
      kit.begin_recovery(hw::CoreType::kLittleA53, [&] {
        recoveries.push_back(s.platform().engine().now());
        if (!prober.any_flagged() && !kit.installed()) kit.install();
      });
    }
  });
  prober.set_on_clear([&](hw::CoreId, sim::Time) {
    if (!prober.any_flagged() && !kit.installed() && !kit.recovering()) {
      kit.install();
    }
  });
  prober.deploy();
  s.run_for(sim::Duration::from_ms(10));  // prober warm-up
  satin.start();
  kit.install();

  // Run until the round that scans the hijack's area completes.
  const std::size_t gettid =
      s.kernel().syscall_entry_offset(os::kGettidSyscallNr);
  const int target_area = satin.area_of_offset(gettid);
  while (satin.checker().check_count(target_area) == 0 &&
         s.now() < sim::Time::from_sec(2000)) {
    s.run_for(sim::Duration::from_sec(1));
  }
  satin.stop();
  for (const core::RoundRecord& r : satin.round_records()) {
    if (r.area != target_area) continue;
    tl.t_start = r.entry;
    tl.handler_start = r.handler_start;
    tl.scan_end = r.scan_end;
    tl.alarm = r.alarm;
    const auto& area =
        satin.checker().areas().at(static_cast<std::size_t>(target_area));
    tl.touch = r.handler_start +
               sim::Duration::from_sec_f(
                   r.per_byte_s * static_cast<double>(gettid - area.offset));
    break;
  }
  // Attribute the detection/recovery that belong to the target round.
  tl.detected = first_at_or_after(detections, tl.t_start, &tl.have_detection);
  tl.recovered =
      first_at_or_after(recoveries, tl.t_start, &tl.have_recovery);
  return tl;
}

void print_timeline(const char* title, const Timeline& tl) {
  bench::subheading(title);
  auto rel = [&](sim::Time t) { return (t - tl.t_start).sec(); };
  bench::sci_row("t_start (secure entry)", {0.0});
  bench::sci_row("+ Ts_switch -> scan", {rel(tl.handler_start)});
  if (tl.have_detection && tl.detected >= tl.t_start) {
    bench::sci_row("+ Tns_delay -> detected", {rel(tl.detected)});
  }
  if (tl.have_recovery && tl.recovered >= tl.t_start) {
    bench::sci_row("+ Tns_recover -> hidden", {rel(tl.recovered)});
  }
  bench::sci_row("scan touches hijack", {rel(tl.touch)});
  bench::sci_row("scan ends", {rel(tl.scan_end)});
  bench::text_row("outcome", tl.alarm ? "ALARM (defender won)"
                                      : "no alarm (attacker hid in time)");
}

}  // namespace
}  // namespace satin

int main(int argc, char** argv) {
  satin::bench::ObsGuard obs(argc, argv);
  if (satin::obs::reject_unconsumed_args(argc, argv)) return 2;
  using namespace satin;
  bench::heading("Fig. 3: the race, measured (times relative to t_start, s)");
  const auto bench_start = std::chrono::steady_clock::now();

  // SATIN: area 14 (~598 KB, hijack 200 KB deep) — touch < recovery.
  core::SatinConfig satin_config;
  satin_config.tp_s = 2.0;
  const Timeline satin_tl = run_one_round(satin_config);
  print_timeline("vs SATIN (area 14 scan)", satin_tl);

  // PKM baseline: whole-kernel pass — recovery < touch (9.5 MB deep).
  const Timeline pkm_tl =
      run_one_round(core::make_pkm_baseline_config(2.0, true, true));
  print_timeline("vs PKM whole-kernel pass", pkm_tl);

  std::printf(
      "\nEq. 1: the attacker escapes iff Ts_switch + S*Ts_1byte >\n"
      "Tns_delay + Tns_recover. Same attacker, same constants — only S\n"
      "(the hijack's depth in the scanned range) differs.\n");
  bench::json_row("bench_fig3_race_timeline", 2, 1,
                  std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - bench_start)
                      .count());
  return 0;
}
