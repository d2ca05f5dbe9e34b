// Table I — Secure World Introspection Time.
//
// 50 timed scans per (core type, strategy); reports seconds-per-byte
// avg/max/min exactly as the paper's table does, plus the §III-B1
// whole-kernel check time (8.04e-2 s).
#include <chrono>

#include "bench/common.h"
#include "scenario/scenario.h"
#include "secure/introspect.h"
#include "sim/stats.h"

namespace satin {
namespace {

struct Row {
  double avg, max, min;
};

Row measure(scenario::Scenario& s, hw::CoreId core,
            secure::ScanStrategy strategy) {
  secure::Introspector intro(s.platform(), secure::HashKind::kDjb2, strategy);
  sim::Accumulator acc;
  const std::size_t length = 1u << 20;
  for (int i = 0; i < 50; ++i) {
    bool done = false;
    intro.scan_async(core, 0, length, [&](const secure::ScanResult& r) {
      acc.add((r.scan_end - r.scan_start).sec() /
              static_cast<double>(r.length));
      done = true;
    });
    s.run_for(sim::Duration::from_ms(50));
    if (!done) std::abort();
  }
  return Row{acc.mean(), acc.max(), acc.min()};
}

}  // namespace
}  // namespace satin

int main(int argc, char** argv) {
  satin::bench::ObsGuard obs(argc, argv);
  if (satin::obs::reject_unconsumed_args(argc, argv)) return 2;
  using namespace satin;
  scenario::Scenario s;

  bench::heading("Table I: Secure World Introspection Time (s/byte)");
  bench::columns("Core-Time", {"Hash 1-Byte", "Snapshot", "paper-hash",
                               "paper-snap"});
  const auto bench_start = std::chrono::steady_clock::now();
  const hw::CoreId a53 = 0;
  const hw::CoreId a57 = 5;
  const auto h53 = measure(s, a53, secure::ScanStrategy::kDirectHash);
  const auto s53 = measure(s, a53, secure::ScanStrategy::kSnapshotThenHash);
  const auto h57 = measure(s, a57, secure::ScanStrategy::kDirectHash);
  const auto s57 = measure(s, a57, secure::ScanStrategy::kSnapshotThenHash);
  const double bench_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    bench_start)
          .count();
  bench::json_row("bench_table1_introspection_time", 4u * 50u, 1,
                  bench_wall_s);

  bench::sci_row("A53-Average", {h53.avg, s53.avg, 1.07e-8, 1.08e-8});
  bench::sci_row("A53-Max", {h53.max, s53.max, 1.14e-8, 1.57e-8});
  bench::sci_row("A53-Min", {h53.min, s53.min, 9.23e-9, 9.24e-9});
  bench::sci_row("A57-Average", {h57.avg, s57.avg, 6.71e-9, 6.75e-9});
  bench::sci_row("A57-Max", {h57.max, s57.max, 7.50e-9, 7.83e-9});
  bench::sci_row("A57-Min", {h57.min, s57.min, 6.67e-9, 6.67e-9});

  bench::subheading("Structural findings");
  std::printf("direct hash <= snapshot per byte: %s\n",
              h53.avg <= s53.avg && h57.avg <= s57.avg ? "yes (as paper)"
                                                       : "NO");
  std::printf("A57 faster than A53:              %s\n",
              h57.avg < h53.avg ? "yes (as paper)" : "NO");

  // §III-B1: "the average time for one core to conduct a kernel integrity
  // check is 8.04e-2 s" (whole 11,916,240-byte kernel).
  const double kernel_bytes = 11'916'240.0;
  bench::subheading("Whole-kernel integrity check (s)");
  bench::sci_row("A57 direct hash", {h57.avg * kernel_bytes, 8.04e-2},
                 "(measured, paper)");
  bench::sci_row("A53 direct hash", {h53.avg * kernel_bytes});
  return 0;
}
