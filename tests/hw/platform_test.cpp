// Cores, worlds, timers, GIC routing and the secure monitor, exercised on
// the assembled platform.
#include "hw/platform.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "obs/metrics.h"

namespace satin::hw {

struct CoreTestPeer {
  static void enter_secure(Core& core, sim::Time when) {
    core.enter_secure(when);
  }
  static void exit_secure(Core& core, sim::Time when) {
    core.exit_secure(when);
  }
};

namespace {

// Runs `op` and returns its std::logic_error message ("" if none).
template <typename Op>
std::string logic_error_of(Op op) {
  try {
    op();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

TEST(CoreInvariant, NestedSecureEntryThrowsWithCoreAndTimes) {
  Core core(2, CoreType::kLittleA53);
  CoreTestPeer::enter_secure(core, sim::Time::from_ms(3));
  const std::string what = logic_error_of(
      [&] { CoreTestPeer::enter_secure(core, sim::Time::from_ms(4)); });
  EXPECT_NE(what.find("core2"), std::string::npos) << what;
  EXPECT_NE(what.find("nested secure entry"), std::string::npos) << what;
  EXPECT_NE(what.find("t=" + sim::Time::from_ms(4).to_string()),
            std::string::npos) << what;
  EXPECT_NE(what.find("last secure entry at t=" +
                      sim::Time::from_ms(3).to_string()),
            std::string::npos) << what;
  EXPECT_TRUE(core.in_secure_world());  // the failed entry changed nothing
  EXPECT_EQ(core.secure_entries(), 1u);
}

TEST(CoreInvariant, SecureExitWithoutEntryThrows) {
  Core core(5, CoreType::kBigA57);
  const std::string what = logic_error_of(
      [&] { CoreTestPeer::exit_secure(core, sim::Time::from_ms(1)); });
  EXPECT_NE(what.find("core5"), std::string::npos) << what;
  EXPECT_NE(what.find("secure exit without entry"), std::string::npos)
      << what;
  EXPECT_FALSE(core.in_secure_world());
  EXPECT_EQ(core.secure_time_total(), sim::Duration::zero());
}

TEST(Platform, JunoTopologyByDefault) {
  Platform p;
  EXPECT_EQ(p.num_cores(), 6);
  EXPECT_EQ(p.cores_of_type(CoreType::kLittleA53),
            (std::vector<CoreId>{0, 1, 2, 3}));
  EXPECT_EQ(p.cores_of_type(CoreType::kBigA57), (std::vector<CoreId>{4, 5}));
  EXPECT_EQ(p.core(0).name(), "core0(A53)");
  EXPECT_EQ(p.core(5).name(), "core5(A57)");
}

TEST(Platform, CustomTopology) {
  PlatformConfig config;
  config.num_little = 2;
  config.num_big = 1;
  Platform p(config);
  EXPECT_EQ(p.num_cores(), 3);
  EXPECT_EQ(p.core(2).type(), CoreType::kBigA57);
}

TEST(Platform, RejectsZeroCores) {
  PlatformConfig config;
  config.num_little = 0;
  config.num_big = 0;
  EXPECT_THROW(Platform p(config), std::invalid_argument);
}

TEST(Platform, AllCoresBootInNormalWorld) {
  Platform p;
  for (int c = 0; c < p.num_cores(); ++c) {
    EXPECT_EQ(p.core(c).world(), World::kNormal);
    EXPECT_EQ(p.core(c).secure_entries(), 0u);
  }
}

class WorldRecorder : public WorldListener {
 public:
  void on_secure_entry(CoreId core, sim::Time when) override {
    entries.emplace_back(core, when);
  }
  void on_secure_exit(CoreId core, sim::Time when) override {
    exits.emplace_back(core, when);
  }
  std::vector<std::pair<CoreId, sim::Time>> entries;
  std::vector<std::pair<CoreId, sim::Time>> exits;
};

TEST(SecureMonitor, TimerInterruptDrivesFullRoundTrip) {
  Platform p;
  WorldRecorder rec;
  p.core(2).add_world_listener(&rec);

  bool payload_ran = false;
  sim::Time handler_start;
  p.monitor().set_secure_timer_payload(
      [&](std::shared_ptr<SecureSession> session) {
        payload_ran = true;
        handler_start = session->handler_start();
        EXPECT_EQ(session->core_id(), 2);
        EXPECT_EQ(session->core_type(), CoreType::kLittleA53);
        EXPECT_TRUE(p.core(2).in_secure_world());
        // Busy for 1 ms of secure work.
        p.engine().schedule_after(sim::Duration::from_ms(1),
                                  [session] { session->complete(); });
      });

  p.timer().program_secure(2, sim::Time::from_ms(10));
  p.engine().run_until(sim::Time::from_ms(20));

  EXPECT_TRUE(payload_ran);
  ASSERT_EQ(rec.entries.size(), 1u);
  ASSERT_EQ(rec.exits.size(), 1u);
  EXPECT_EQ(rec.entries[0].second, sim::Time::from_ms(10));
  // Entry -> handler after Ts_switch in [2.38, 3.60] us.
  const double switch_in = (handler_start - rec.entries[0].second).sec();
  EXPECT_GE(switch_in, 2.38e-6);
  EXPECT_LE(switch_in, 3.60e-6);
  // Exit after handler end + another switch.
  const double total = (rec.exits[0].second - rec.entries[0].second).sec();
  EXPECT_GT(total, 1.0e-3 + 2 * 2.38e-6);
  EXPECT_LT(total, 1.0e-3 + 2 * 3.60e-6 + 1e-9);
  EXPECT_FALSE(p.core(2).in_secure_world());
  // Occupancy accounting.
  EXPECT_EQ(p.core(2).secure_entries(), 1u);
  EXPECT_NEAR(p.core(2).secure_time_total().sec(), total, 1e-12);
  p.core(2).remove_world_listener(&rec);
}

TEST(SecureMonitor, NoPayloadMeansEnterAndLeave) {
  Platform p;
  p.timer().program_secure(0, sim::Time::from_ms(1));
  p.engine().run_until(sim::Time::from_ms(2));
  EXPECT_EQ(p.core(0).secure_entries(), 1u);
  EXPECT_FALSE(p.core(0).in_secure_world());
  const double stay = p.core(0).secure_time_total().sec();
  EXPECT_GE(stay, 2 * 2.38e-6);
  EXPECT_LE(stay, 2 * 3.60e-6);
}

TEST(SecureMonitor, IndependentCoresEnterIndependently) {
  // §II: "the ARM multi-core architecture allows each core to enter its
  // secure world independently".
  Platform p;
  p.monitor().set_secure_timer_payload(
      [&](std::shared_ptr<SecureSession> session) {
        p.engine().schedule_after(sim::Duration::from_ms(5),
                                  [session] { session->complete(); });
      });
  p.timer().program_secure(1, sim::Time::from_ms(1));
  p.timer().program_secure(4, sim::Time::from_ms(2));
  p.engine().run_until(sim::Time::from_ms(3));
  EXPECT_TRUE(p.core(1).in_secure_world());
  EXPECT_TRUE(p.core(4).in_secure_world());
  EXPECT_FALSE(p.core(0).in_secure_world());
  p.engine().run_until(sim::Time::from_ms(10));
  EXPECT_FALSE(p.core(1).in_secure_world());
  EXPECT_FALSE(p.core(4).in_secure_world());
}

TEST(SecureMonitor, SecureIrqWithoutAHandlerThrows) {
  // The monitor serves only the secure timer: another secure-group IRQ is
  // a routing error, named with its IRQ and its core, not skipped.
  Platform p;
  p.gic().configure_group(IrqId::kSoftwareGenerated, IrqGroup::kSecure);
  const std::string what =
      logic_error_of([&] { p.gic().raise(2, IrqId::kSoftwareGenerated); });
  EXPECT_NE(what.find("unhandled secure irq 8 on core 2"), std::string::npos)
      << what;
  EXPECT_EQ(p.core(2).secure_entries(), 0u);
}

TEST(GenericTimer, ReprogramReplacesPendingExpiry) {
  Platform p;
  int fired = 0;
  p.monitor().set_secure_timer_payload(
      [&](std::shared_ptr<SecureSession> session) {
        ++fired;
        session->complete();
      });
  p.timer().program_secure(0, sim::Time::from_ms(5));
  p.timer().program_secure(0, sim::Time::from_ms(9));
  p.engine().run_until(sim::Time::from_ms(7));
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(p.timer().secure_enabled(0));
  EXPECT_EQ(p.timer().secure_compare_value(0), sim::Time::from_ms(9));
  p.engine().run_until(sim::Time::from_ms(10));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(p.timer().secure_enabled(0));
}

TEST(GenericTimer, StopDisablesExpiry) {
  Platform p;
  int fired = 0;
  p.monitor().set_secure_timer_payload(
      [&](std::shared_ptr<SecureSession> session) {
        ++fired;
        session->complete();
      });
  p.timer().program_secure(3, sim::Time::from_ms(5));
  p.timer().stop_secure(3);
  p.engine().run_until(sim::Time::from_ms(10));
  EXPECT_EQ(fired, 0);
}

TEST(GenericTimer, PastCompareValueFiresImmediately) {
  Platform p;
  p.engine().run_until(sim::Time::from_ms(10));
  int fired = 0;
  p.monitor().set_secure_timer_payload(
      [&](std::shared_ptr<SecureSession> session) {
        ++fired;
        session->complete();
      });
  p.timer().program_secure(0, sim::Time::from_ms(2));  // already past
  p.engine().run_until(sim::Time::from_ms(10) + sim::Duration::from_us(100));
  EXPECT_EQ(fired, 1);
}

TEST(GenericTimer, CounterIsSharedSimTime) {
  Platform p;
  p.engine().run_until(sim::Time::from_ms(42));
  EXPECT_EQ(p.timer().counter(), sim::Time::from_ms(42));
}

TEST(Gic, NonSecureIrqPendsAcrossSecureStay) {
  // §V-B: with SCR_EL3.IRQ = 0 the introspection is non-preemptive; the
  // normal-world interrupt is delivered only after the world switch back.
  Platform p;
  std::vector<sim::Time> deliveries;
  p.gic().set_nonsecure_handler([&](CoreId core, IrqId irq) {
    EXPECT_EQ(core, 0);
    EXPECT_EQ(irq, IrqId::kNonSecurePhysTimer);
    deliveries.push_back(p.engine().now());
  });
  p.monitor().set_secure_timer_payload(
      [&](std::shared_ptr<SecureSession> session) {
        p.engine().schedule_after(sim::Duration::from_ms(2),
                                  [session] { session->complete(); });
      });
  p.timer().program_secure(0, sim::Time::from_ms(1));
  // NS tick lands mid-stay.
  p.timer().program_nonsecure(0, sim::Time::from_ms(2));
  p.engine().run_until(sim::Time::from_ms(1) + sim::Duration::from_ms(1) +
                       sim::Duration::from_us(500));
  EXPECT_TRUE(p.gic().is_pending(0, IrqId::kNonSecurePhysTimer));
  EXPECT_TRUE(deliveries.empty());
  p.engine().run_until(sim::Time::from_ms(10));
  ASSERT_EQ(deliveries.size(), 1u);
  // Delivered at the secure exit moment, not at its raise time.
  EXPECT_GT(deliveries[0], sim::Time::from_ms(3));
  EXPECT_FALSE(p.gic().is_pending(0, IrqId::kNonSecurePhysTimer));
}

TEST(Gic, NonSecureIrqDeliveredImmediatelyInNormalWorld) {
  Platform p;
  int delivered = 0;
  p.gic().set_nonsecure_handler([&](CoreId, IrqId) { ++delivered; });
  p.timer().program_nonsecure(2, sim::Time::from_ms(1));
  p.engine().run_until(sim::Time::from_ms(2));
  EXPECT_EQ(delivered, 1);
}

TEST(Gic, SecureIrqWhileSecurePendsUntilExit) {
  Platform p;
  std::vector<sim::Time> sessions;
  p.monitor().set_secure_timer_payload(
      [&](std::shared_ptr<SecureSession> session) {
        sessions.push_back(session->entry_time());
        p.engine().schedule_after(sim::Duration::from_ms(2),
                                  [session] { session->complete(); });
      });
  p.timer().program_secure(0, sim::Time::from_ms(1));
  p.engine().run_until(sim::Time::from_ms(1) + sim::Duration::from_us(100));
  ASSERT_EQ(sessions.size(), 1u);
  // Raise another secure timer IRQ while the core is still secure.
  p.timer().program_secure(0, sim::Time::from_ms(2));
  p.engine().run_until(sim::Time::from_ms(2) + sim::Duration::from_us(100));
  EXPECT_EQ(sessions.size(), 1u);  // pended, not re-entered
  p.engine().run_until(sim::Time::from_ms(20));
  EXPECT_EQ(sessions.size(), 2u);  // served after the exit
}

TEST(Gic, PendedSecureIrqReentersDuringTheExitNotification) {
  // The open re-entry defect (ROADMAP): the GIC hears of an exit before
  // the listeners registered after it and delivers the pended secure
  // timer IRQ at once, so the core re-enters inside exit_secure.
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* const previous = obs::metrics();
  obs::install_metrics(&registry);
  Platform p;
  p.monitor().set_secure_timer_payload(
      [&](std::shared_ptr<SecureSession> session) {
        p.engine().schedule_after(sim::Duration::from_ms(2),
                                  [session] { session->complete(); });
      });
  p.timer().program_secure(0, sim::Time::from_ms(1));
  p.engine().run_until(sim::Time::from_ms(1) + sim::Duration::from_us(100));
  p.timer().program_secure(0, sim::Time::from_ms(2));  // pends
  p.engine().run_until(sim::Time::from_ms(20));
  // A later stay entered from the normal world is no re-entry.
  p.timer().program_secure(0, sim::Time::from_ms(30));
  p.engine().run_until(sim::Time::from_ms(40));
  obs::install_metrics(previous);
  EXPECT_EQ(p.core(0).secure_entries(), 3u);
  const obs::Counter* reentries = registry.find_counter("hw.secure_reentries");
  ASSERT_NE(reentries, nullptr);
  EXPECT_EQ(reentries->value(), 1u);
}

TEST(Gic, PendingCollapsesRepeatedRaises) {
  Platform p;
  int delivered = 0;
  p.gic().set_nonsecure_handler([&](CoreId, IrqId) { ++delivered; });
  p.monitor().set_secure_timer_payload(
      [&](std::shared_ptr<SecureSession> session) {
        p.engine().schedule_after(sim::Duration::from_ms(5),
                                  [session] { session->complete(); });
      });
  p.timer().program_secure(0, sim::Time::from_ms(1));
  p.engine().run_until(sim::Time::from_ms(2));
  p.gic().raise(0, IrqId::kNonSecurePhysTimer);
  p.gic().raise(0, IrqId::kNonSecurePhysTimer);
  p.gic().raise(0, IrqId::kNonSecurePhysTimer);
  EXPECT_EQ(p.gic().pending_count(0), 1u);
  p.engine().run_until(sim::Time::from_ms(20));
  EXPECT_EQ(delivered, 1);
}

TEST(Gic, DefaultGroupIsNonSecure) {
  Platform p;
  EXPECT_EQ(p.gic().group_of(IrqId::kSoftwareGenerated), IrqGroup::kNonSecure);
  EXPECT_EQ(p.gic().group_of(IrqId::kSecurePhysTimer), IrqGroup::kSecure);
}

TEST(Core, ListenerRemoveStopsNotifications) {
  Platform p;
  WorldRecorder rec;
  p.core(0).add_world_listener(&rec);
  p.core(0).remove_world_listener(&rec);
  p.timer().program_secure(0, sim::Time::from_ms(1));
  p.engine().run_until(sim::Time::from_ms(2));
  EXPECT_TRUE(rec.entries.empty());
}

TEST(Core, TypeToStringRoundtrip) {
  EXPECT_STREQ(to_string(CoreType::kLittleA53), "A53");
  EXPECT_STREQ(to_string(CoreType::kBigA57), "A57");
  EXPECT_STREQ(to_string(World::kNormal), "normal");
  EXPECT_STREQ(to_string(World::kSecure), "secure");
}

}  // namespace
}  // namespace satin::hw
