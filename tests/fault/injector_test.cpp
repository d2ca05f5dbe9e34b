// FaultInjector seam behavior on the full simulated platform: each fault
// kind observably bites, plans are deterministic, and an armed injector
// whose windows never open costs nothing.
#include "fault/injector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <stdexcept>
#include <vector>

#include "core/satin.h"
#include "hw/platform.h"
#include "obs/metrics.h"
#include "scenario/scenario.h"

namespace satin::fault {
namespace {

using sim::Duration;
using sim::Time;

std::vector<Time> round_entries(const core::Satin& satin) {
  std::vector<Time> out;
  for (const core::RoundRecord& r : satin.round_records()) {
    out.push_back(r.entry);
  }
  return out;
}

TEST(FaultInjector, EmptySpecInstallsNothing) {
  scenario::Scenario s;
  const auto injector = install_from_spec(s.platform(), "");
  EXPECT_EQ(injector, nullptr);
  EXPECT_EQ(s.platform().fault_hooks(), nullptr);
}

TEST(FaultInjector, MalformedSpecThrows) {
  scenario::Scenario s;
  EXPECT_THROW(install_from_spec(s.platform(), "gremlins@1s+2s"),
               std::invalid_argument);
  EXPECT_EQ(s.platform().fault_hooks(), nullptr);
}

TEST(FaultInjector, DisarmUninstallsHooks) {
  scenario::Scenario s;
  auto injector = install_from_spec(s.platform(), "timer-misfire@1s+2s");
  ASSERT_NE(injector, nullptr);
  EXPECT_EQ(s.platform().fault_hooks(), injector.get());
  injector->disarm();
  EXPECT_EQ(s.platform().fault_hooks(), nullptr);
}

TEST(FaultInjector, TimerMisfireSuppressesWakes) {
  scenario::Scenario s;
  const auto injector =
      install_from_spec(s.platform(), "timer-misfire@0s+1000s");
  core::SatinConfig config;
  config.tp_s = 0.5;
  core::Satin satin(s.platform(), s.kernel(), s.tsp(), config);
  satin.start();
  s.run_for(Duration::from_sec(20));
  EXPECT_EQ(satin.rounds(), 0u) << "every programmed wake must be dropped";
  EXPECT_GT(injector->injected(FaultKind::kTimerMisfire), 0u);
  EXPECT_GT(s.platform().timer().faulted_programs(), 0u);
}

TEST(FaultInjector, TimerDriftDelaysWakes) {
  scenario::Scenario s;
  const auto injector =
      install_from_spec(s.platform(), "timer-drift@0s+1000s:drift=2s");
  core::SatinConfig config;
  config.multi_core = false;
  config.fixed_core = 4;
  config.randomize_wake = false;
  config.tp_s = 1.0;
  core::Satin satin(s.platform(), s.kernel(), s.tsp(), config);
  satin.start();
  s.run_for(Duration::from_sec(10));
  ASSERT_GE(satin.rounds(), 2u);
  EXPECT_GT(injector->injected(FaultKind::kTimerDrift), 0u);
  // Strictly periodic grid at tp = 1 s, every expiry pushed 2 s late:
  // the first entry lands at ~3 s instead of ~1 s.
  EXPECT_NEAR(satin.round_records().front().entry.sec(), 3.0, 0.1);
}

TEST(FaultInjector, LostIrqsNeverReachTheCore) {
  scenario::Scenario s;
  const auto injector = install_from_spec(s.platform(), "irq-lost@0s+1000s");
  core::SatinConfig config;
  config.tp_s = 0.5;
  core::Satin satin(s.platform(), s.kernel(), s.tsp(), config);
  satin.start();
  s.run_for(Duration::from_sec(20));
  EXPECT_EQ(satin.rounds(), 0u);
  EXPECT_GT(injector->injected(FaultKind::kIrqLost), 0u);
}

TEST(FaultInjector, SmcFailureAbortsSecureEntry) {
  scenario::Scenario s;
  const auto injector = install_from_spec(s.platform(), "smc-fail@0s+1000s");
  core::SatinConfig config;
  config.tp_s = 0.5;
  core::Satin satin(s.platform(), s.kernel(), s.tsp(), config);
  satin.start();
  s.run_for(Duration::from_sec(20));
  EXPECT_EQ(satin.rounds(), 0u);
  EXPECT_GT(injector->injected(FaultKind::kSmcFail), 0u);
  EXPECT_GT(s.platform().monitor().failed_entries(), 0u);
  for (int c = 0; c < s.platform().num_cores(); ++c) {
    EXPECT_FALSE(s.platform().core(c).in_secure_world());
  }
}

TEST(FaultInjector, CoreOfflineWindowTogglesPower) {
  scenario::Scenario s;
  const auto injector =
      install_from_spec(s.platform(), "core-off@1s+2s:core=2");
  s.run_until(Time::from_sec(2));
  EXPECT_FALSE(s.platform().core(2).online());
  s.run_until(Time::from_sec(4));
  EXPECT_TRUE(s.platform().core(2).online());
  EXPECT_EQ(injector->injected(FaultKind::kCoreOffline), 1u);
}

TEST(FaultInjector, SpuriousIrqsTriggerExtraRounds) {
  scenario::Scenario s;
  // tp is huge, so every completed round below was spuriously triggered.
  const auto injector = install_from_spec(
      s.platform(), "irq-spurious@1s+8s:period=1s:core=0");
  core::SatinConfig config;
  config.tp_s = 500.0;
  core::Satin satin(s.platform(), s.kernel(), s.tsp(), config);
  satin.start();
  s.run_for(Duration::from_sec(12));
  EXPECT_GT(injector->injected(FaultKind::kIrqSpurious), 0u);
  EXPECT_GE(satin.rounds(), injector->injected(FaultKind::kIrqSpurious));
  EXPECT_GT(satin.rounds(), 0u);
}

TEST(FaultInjector, ClosedWindowPlanIsZeroCost) {
  // An armed injector whose only window never opens must leave the run
  // bit-identical to a run with no injector at all.
  core::SatinConfig config;
  config.tp_s = 0.5;
  std::vector<Time> reference;
  {
    scenario::Scenario s;
    core::Satin satin(s.platform(), s.kernel(), s.tsp(), config);
    satin.start();
    s.run_for(Duration::from_sec(15));
    reference = round_entries(satin);
  }
  scenario::Scenario s;
  const auto injector =
      install_from_spec(s.platform(), "timer-misfire@100000s+1s");
  core::Satin satin(s.platform(), s.kernel(), s.tsp(), config);
  satin.start();
  s.run_for(Duration::from_sec(15));
  EXPECT_EQ(injector->injected_total(), 0u);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(round_entries(satin), reference);
}

TEST(FaultInjector, SamePlanSameSeedSameSchedule) {
  const char* spec =
      "seed=3,timer-misfire@1s+6s:p=0.4,bitflip@0s+20s:p=0.3,"
      "irq-lost@4s+8s:p=0.5,core-off@9s+3s";
  auto run = [&](std::vector<Time>& entries,
                 std::array<std::uint64_t, kFaultKindCount>& counts) {
    scenario::Scenario s;
    const auto injector = install_from_spec(s.platform(), spec);
    core::SatinConfig config;
    config.tp_s = 0.5;
    core::Satin satin(s.platform(), s.kernel(), s.tsp(), config);
    satin.start();
    s.run_for(Duration::from_sec(20));
    entries = round_entries(satin);
    for (int k = 0; k < kFaultKindCount; ++k) {
      counts[static_cast<std::size_t>(k)] =
          injector->injected(static_cast<FaultKind>(k));
    }
  };
  std::vector<Time> entries_a, entries_b;
  std::array<std::uint64_t, kFaultKindCount> counts_a{}, counts_b{};
  run(entries_a, counts_a);
  run(entries_b, counts_b);
  EXPECT_EQ(entries_a, entries_b);
  EXPECT_EQ(counts_a, counts_b);
}

TEST(FaultInjector, BitFlipsHitTheViewNotTheKernel) {
  // Forced bit-flips corrupt every scan inside the window — but only the
  // scan's view. The moment the window closes the untouched backing
  // bytes verify clean again: not a single alarm after 10 s.
  scenario::Scenario s;
  const auto injector = install_from_spec(s.platform(), "bitflip@0s+10s");
  core::SatinConfig config;
  config.tp_s = 0.5;
  core::Satin satin(s.platform(), s.kernel(), s.tsp(), config);
  satin.start();
  s.run_until(Time::from_sec(10));
  EXPECT_GT(injector->injected(FaultKind::kBitFlip), 0u);
  const std::uint64_t in_window = satin.checker().alarms().size();
  EXPECT_GT(in_window, 0u) << "every in-window scan must mismatch";
  s.run_until(Time::from_sec(25));
  EXPECT_GT(satin.rounds(), 20u);
  EXPECT_EQ(satin.checker().alarms().size(), in_window)
      << "a flip leaked into the backing kernel bytes";
}

// The bit flips one seeded plan draws for a fixed series of scans, as
// recorded from the injector before it returned flips instead of applying
// them to a copied view (that injector's flips, read back as the bytes
// that differ from an all-zero view; no two flips of one scan collided).
// Two overlapping windows; the first triggers with p = 0.5.
constexpr const char* kRecordedFlipPlan =
    "seed=7,bitflip@1s+8s:p=0.5:flips=3,bitflip@5s+10s:flips=2";

struct RecordedScan {
  double start_s;
  std::size_t length;
  std::vector<hw::BitFlip> flips;  // sorted by position
};

const std::vector<RecordedScan>& recorded_scans() {
  static const std::vector<RecordedScan> scans = {
      {0.5, 4096, {}},
      {1.0, 4096, {}},
      {2.0, 1000, {}},
      {3.0, 65536, {{3610, 0x40}, {58452, 0x02}, {59028, 0x04}}},
      {4.0, 300, {}},
      {5.0, 4096, {{1627, 0x04}, {3408, 0x04}}},
      {6.0, 1000, {{620, 0x04}, {866, 0x04}}},
      {7.0, 65536,
       {{2192, 0x01}, {11057, 0x04}, {17750, 0x20}, {21688, 0x20},
        {32772, 0x01}}},
      {8.0, 300, {{12, 0x10}, {83, 0x02}, {178, 0x04}, {235, 0x02},
                  {269, 0x20}}},
      {9.0, 4096, {{517, 0x20}, {3955, 0x02}}},
      {12.0, 1000, {{296, 0x01}, {561, 0x20}}},
      {16.0, 4096, {}},
  };
  return scans;
}

TEST(FaultInjector, SeededBitFlipsMatchTheRecordedDraws) {
  hw::Platform platform;
  obs::MetricsRegistry registry;
  obs::install_metrics(&registry);
  FaultInjector injector(platform, FaultPlan::parse(kRecordedFlipPlan));
  for (const RecordedScan& scan : recorded_scans()) {
    std::vector<hw::BitFlip> flips =
        injector.scan_flips(Time::from_sec_f(scan.start_s), scan.length);
    std::sort(flips.begin(), flips.end(),
              [](const hw::BitFlip& a, const hw::BitFlip& b) {
                return a.pos < b.pos;
              });
    EXPECT_EQ(flips, scan.flips) << "scan at " << scan.start_s << " s";
  }
  obs::install_metrics(nullptr);
  EXPECT_EQ(injector.injected(FaultKind::kBitFlip), 9u);
  const obs::Counter* bits = registry.find_counter("fault.bits_flipped");
  ASSERT_NE(bits, nullptr);
  EXPECT_EQ(bits->value(), 21u);
}

TEST(FaultInjector, OnlyAFlippedScanIsOwned) {
  // The same draws through the memory seam: a scan the draw flips nothing
  // in stays a zero-copy window; a flipped one owns a private view that
  // differs from the backing bytes in exactly the drawn bits.
  hw::Platform platform;
  hw::Memory& mem = platform.memory();
  std::vector<std::uint8_t> pattern(65536);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  mem.poke(0, pattern);
  FaultInjector injector(platform, FaultPlan::parse(kRecordedFlipPlan));
  injector.arm();
  for (const RecordedScan& scan : recorded_scans()) {
    const auto token =
        mem.begin_scan(Time::from_sec_f(scan.start_s), 0, scan.length, 1000.0);
    const auto view = mem.finish_scan(token);
    EXPECT_EQ(view.owned(), !scan.flips.empty()) << scan.start_s;
    std::vector<std::uint8_t> want(pattern.begin(),
                                   pattern.begin() + scan.length);
    for (const hw::BitFlip& flip : scan.flips) want[flip.pos] ^= flip.mask;
    EXPECT_EQ(view.to_vector(), want) << scan.start_s;
  }
  EXPECT_TRUE(std::equal(pattern.begin(), pattern.end(), mem.bytes().begin()));
}

TEST(FaultInjector, ScanWithoutAFlipIsServedFromTheBase) {
  // Under an armed bit-flip plan whose draws flip nothing, every scan is
  // a trusted zero-copy view of untouched kernel bytes, so the digest
  // cache serves it from the pristine base and bypasses none.
  scenario::Scenario s;
  const auto injector =
      install_from_spec(s.platform(), "bitflip@0s+1000s:p=0");
  core::SatinConfig config;
  config.tp_s = 0.5;
  core::Satin satin(s.platform(), s.kernel(), s.tsp(), config);
  satin.start();
  s.run_for(Duration::from_sec(10));
  ASSERT_GT(satin.rounds(), 5u);
  EXPECT_EQ(injector->injected(FaultKind::kBitFlip), 0u);
  const auto& stats = satin.checker().introspector().digest_cache().stats();
  EXPECT_EQ(stats.bypasses, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(stats.bytes_hashed, 0u);
  EXPECT_TRUE(satin.checker().alarms().empty());
}

}  // namespace
}  // namespace satin::fault
