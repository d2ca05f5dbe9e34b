#include "sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight/recorder.h"

namespace satin::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), Time::zero());
  EXPECT_EQ(engine.pending_count(), 0u);
}

TEST(Engine, FiresInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(Time::from_ns(30), [&] { order.push_back(3); });
  engine.schedule_at(Time::from_ns(10), [&] { order.push_back(1); });
  engine.schedule_at(Time::from_ns(20), [&] { order.push_back(2); });
  engine.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), Time::from_ns(30));
}

TEST(Engine, EqualTimesFireInScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.schedule_at(Time::from_ns(10), [&order, i] { order.push_back(i); });
  }
  engine.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, RunUntilAdvancesClockToDeadline) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(Time::from_ms(5), [&] { ++fired; });
  engine.schedule_at(Time::from_ms(15), [&] { ++fired; });
  EXPECT_EQ(engine.run_until(Time::from_ms(10)), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), Time::from_ms(10));
  EXPECT_EQ(engine.run_until(Time::from_ms(20)), 1u);
  EXPECT_EQ(fired, 2);
}

TEST(Engine, EventAtDeadlineBoundaryFires) {
  Engine engine;
  bool fired = false;
  engine.schedule_at(Time::from_ms(10), [&] { fired = true; });
  engine.run_until(Time::from_ms(10));
  EXPECT_TRUE(fired);
}

TEST(Engine, ScheduleAfterUsesCurrentTime) {
  Engine engine;
  Time seen;
  engine.schedule_at(Time::from_ms(3), [&] {
    engine.schedule_after(Duration::from_ms(4), [&] { seen = engine.now(); });
  });
  engine.run_all();
  EXPECT_EQ(seen, Time::from_ms(7));
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine engine;
  engine.schedule_at(Time::from_ms(5), [] {});
  engine.run_all();
  EXPECT_THROW(engine.schedule_at(Time::from_ms(1), [] {}), std::logic_error);
}

TEST(Engine, CancelPreventsFiring) {
  Engine engine;
  bool fired = false;
  EventHandle handle =
      engine.schedule_at(Time::from_ms(1), [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  engine.run_all();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelAfterFiringIsNoop) {
  Engine engine;
  EventHandle handle = engine.schedule_at(Time::from_ms(1), [] {});
  engine.run_all();
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // no crash
}

TEST(Engine, HandleReportsWhen) {
  Engine engine;
  EventHandle handle = engine.schedule_at(Time::from_ms(9), [] {});
  EXPECT_EQ(handle.when(), Time::from_ms(9));
}

TEST(Engine, PendingCountSkipsCancelled) {
  Engine engine;
  EventHandle a = engine.schedule_at(Time::from_ms(1), [] {});
  engine.schedule_at(Time::from_ms(2), [] {});
  a.cancel();
  EXPECT_EQ(engine.pending_count(), 1u);
}

TEST(Engine, RequestStopEndsRunEarly) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(Time::from_ms(1), [&] {
    ++fired;
    engine.request_stop();
  });
  engine.schedule_at(Time::from_ms(2), [&] { ++fired; });
  engine.run_all();
  EXPECT_EQ(fired, 1);
  engine.run_all();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Engine, CallbackMayRescheduleItself) {
  Engine engine;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) engine.schedule_after(Duration::from_ms(1), tick);
  };
  engine.schedule_at(Time::from_ms(1), tick);
  engine.run_all();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(engine.now(), Time::from_ms(5));
}

TEST(Engine, StepFiresExactlyOne) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(Time::from_ms(1), [&] { ++fired; });
  engine.schedule_at(Time::from_ms(2), [&] { ++fired; });
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
  EXPECT_EQ(fired, 2);
}

TEST(Engine, EventsFiredCounter) {
  Engine engine;
  for (int i = 0; i < 7; ++i) {
    engine.schedule_at(Time::from_ms(i + 1), [] {});
  }
  engine.run_all();
  EXPECT_EQ(engine.events_fired(), 7u);
}

TEST(Engine, StepClearsStaleStopRequest) {
  // A stop requested outside any run loop must not wedge the next step:
  // step() adopts the run_until/run_all contract and clears the flag on
  // entry, so a stale request affects nothing.
  Engine engine;
  int fired = 0;
  engine.schedule_at(Time::from_ms(1), [&] { ++fired; });
  engine.request_stop();
  EXPECT_TRUE(engine.stop_requested());
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(engine.stop_requested());
}

TEST(Engine, StopRequestedInsideCallbackIsObservableAfterStep) {
  Engine engine;
  engine.schedule_at(Time::from_ms(1), [&] { engine.request_stop(); });
  engine.schedule_at(Time::from_ms(2), [] {});
  EXPECT_TRUE(engine.step());
  EXPECT_TRUE(engine.stop_requested());
  // The next step starts a fresh run: the old request is spent.
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.stop_requested());
}

TEST(Engine, SelfMetricsTrackQueueAndCancellations) {
  Engine engine;
  EventHandle doomed = engine.schedule_at(Time::from_ms(1), [] {});
  engine.schedule_at(Time::from_ms(2), [] {});
  engine.schedule_at(Time::from_ms(3), [] {});
  EXPECT_EQ(engine.queue_high_water(), 3u);
  doomed.cancel();
  engine.run_all();
  EXPECT_EQ(engine.events_fired(), 2u);
  EXPECT_EQ(engine.cancelled_popped(), 1u);
  EXPECT_GE(engine.wall_seconds(), 0.0);
}

TEST(Engine, CancelledEventDoesNotAdvanceClock) {
  Engine engine;
  EventHandle handle = engine.schedule_at(Time::from_ms(50), [] {});
  handle.cancel();
  engine.schedule_at(Time::from_ms(10), [] {});
  engine.run_all();
  EXPECT_EQ(engine.now(), Time::from_ms(10));
}

TEST(Engine, PendingCountExcludesCancelledEntries) {
  Engine engine;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(engine.schedule_at(Time::from_ms(i + 1), [] {}));
  }
  EXPECT_EQ(engine.pending_count(), 10u);
  for (int i = 0; i < 4; ++i) handles[static_cast<std::size_t>(i)].cancel();
  EXPECT_EQ(engine.pending_count(), 6u);
  EXPECT_EQ(engine.cancelled_pending(), 4u);
  // Double-cancel must not double-count.
  handles[0].cancel();
  EXPECT_EQ(engine.cancelled_pending(), 4u);
}

TEST(Engine, LazyCompactionSweepsCancelledMajority) {
  // Cancel far more than half of a >= 64-entry heap, then schedule: the
  // lazy sweep reclaims the dead entries without losing any live event.
  Engine engine;
  std::vector<EventHandle> doomed;
  int fired = 0;
  for (int i = 0; i < 200; ++i) {
    doomed.push_back(
        engine.schedule_at(Time::from_ms(1000 + i), [&fired] { ++fired; }));
  }
  std::vector<Time> live_times;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(Time::from_ms(1 + i), [&fired] { ++fired; });
    live_times.push_back(Time::from_ms(1 + i));
  }
  for (EventHandle& h : doomed) h.cancel();
  EXPECT_EQ(engine.pending_count(), 10u);
  EXPECT_EQ(engine.cancelled_pending(), 200u);
  // The next schedule notices cancelled > heap/2 and sweeps.
  engine.schedule_at(Time::from_ms(500), [&fired] { ++fired; });
  EXPECT_GE(engine.compactions(), 1u);
  EXPECT_EQ(engine.cancelled_pending(), 0u);
  EXPECT_EQ(engine.pending_count(), 11u);
  EXPECT_EQ(engine.cancelled_popped(), 200u);
  // Every live event still fires, in time order.
  engine.run_all();
  EXPECT_EQ(fired, 11);
  EXPECT_EQ(engine.now(), Time::from_ms(500));
}

TEST(Engine, SmallHeapsSkipCompaction) {
  // Unit-scale workloads (heap < 64) never compact: cancelled entries are
  // skipped at pop time, keeping cancelled_popped() semantics exact for
  // the small tests above.
  Engine engine;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 20; ++i) {
    handles.push_back(engine.schedule_at(Time::from_ms(i + 1), [] {}));
  }
  for (EventHandle& h : handles) h.cancel();
  engine.schedule_at(Time::from_ms(100), [] {});
  EXPECT_EQ(engine.compactions(), 0u);
  EXPECT_EQ(engine.cancelled_pending(), 20u);
  engine.run_all();
  EXPECT_EQ(engine.cancelled_popped(), 20u);
}

TEST(Engine, CancelAfterCompactionIsSafe) {
  // A handle whose entry was swept out must stay inert: cancel() again,
  // pending(), when() — no crash, no tally corruption.
  Engine engine;
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 128; ++i) {
    doomed.push_back(engine.schedule_at(Time::from_ms(100 + i), [] {}));
  }
  for (EventHandle& h : doomed) h.cancel();
  engine.schedule_at(Time::from_ms(1), [] {});  // triggers the sweep
  EXPECT_GE(engine.compactions(), 1u);
  for (EventHandle& h : doomed) {
    EXPECT_FALSE(h.pending());
    h.cancel();  // no-op
  }
  EXPECT_EQ(engine.cancelled_pending(), 0u);
}

TEST(Engine, StaleHandleAfterRecycleIsInert) {
  // Once an event fires its slab slot is recycled under a new generation;
  // the old handle must observe nothing and touch nothing — in particular
  // it must not cancel the slot's new occupant.
  Engine engine;
  bool a_fired = false;
  EventHandle a = engine.schedule_at(Time::from_us(1), [&] { a_fired = true; });
  engine.run_all();
  EXPECT_TRUE(a_fired);
  bool b_fired = false;
  EventHandle b = engine.schedule_at(Time::from_us(2), [&] { b_fired = true; });
  // The LIFO free list hands b the slot a just vacated.
  EXPECT_EQ(engine.pool_reuses(), 1u);
  EXPECT_FALSE(a.pending());
  EXPECT_EQ(a.when(), Time::zero());
  a.cancel();  // stale generation: must not cancel b
  EXPECT_TRUE(b.pending());
  EXPECT_EQ(b.when(), Time::from_us(2));
  engine.run_all();
  EXPECT_TRUE(b_fired);
}

TEST(Engine, EqualTimestampScheduledLaterFiresLater) {
  // Two events at one timestamp, the second scheduled 50 ms into the run
  // from a callback: the sequence number, not the scheduling time,
  // decides who fires first.
  Engine engine;
  std::vector<int> order;
  const Time t = Time::from_ms(100);
  engine.schedule_at(t, [&] { order.push_back(0); });  // seq 0
  engine.schedule_at(Time::from_ms(50), [&] {
    engine.schedule_at(t, [&] { order.push_back(1); });  // seq 2
  });
  engine.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(Engine, CallbackSchedulingBetweenPendingEventsKeepsOrder) {
  // The first of two events 20 µs apart schedules a third between them
  // at fire time. It must still fire in timestamp order.
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(Time::from_us(10), [&] {
    order.push_back(0);
    engine.schedule_at(Time::from_us(20), [&] { order.push_back(1); });
  });
  engine.schedule_at(Time::from_us(30), [&] { order.push_back(2); });
  engine.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Engine, TickProbeAndWatchdogRangesFireInTimeOrder) {
  Engine engine;
  std::vector<Time> fired;
  const auto record = [&] { fired.push_back(engine.now()); };
  engine.schedule_at(Time::from_ms(4), record);   // scheduler-tick range
  engine.schedule_at(Time::from_us(50), record);  // probe range
  engine.schedule_at(Time::from_sec(2), record);  // watchdog range
  EXPECT_EQ(engine.queue_high_water(), 3u);
  engine.run_all();
  EXPECT_EQ(fired, (std::vector<Time>{Time::from_us(50), Time::from_ms(4),
                                      Time::from_sec(2)}));
}

TEST(Engine, EventScheduledAfterAQuietJumpFiresOnTime) {
  // run_until over idle time moves the clock with an empty queue; an
  // event scheduled after the jump is relative to the new clock.
  Engine engine;
  engine.run_until(Time::from_sec(5));
  engine.schedule_after(Duration::from_ms(4), [] {});
  EXPECT_EQ(engine.run_all(), 1u);
  EXPECT_EQ(engine.now(), Time::from_sec(5) + Duration::from_ms(4));
}

TEST(Engine, InlineCallbackCountsTrackStorage) {
  Engine engine;
  engine.schedule_at(Time::from_us(1), [] {});
  bool saw = false;
  engine.schedule_at(Time::from_us(2), [&saw] { saw = true; });
  EXPECT_EQ(engine.callbacks_inline(), 2u);
  engine.run_all();
  EXPECT_TRUE(saw);
}

TEST(Engine, PoolGrowsOnceForBoundedOccupancy) {
  Engine engine;
  for (int i = 0; i < 200; ++i) {
    engine.schedule_at(Time::from_us(i + 1), [] {});
  }
  engine.run_all();
  // 200 simultaneous events fit one 256-slot slab; the churn above must
  // not have grown a second one.
  EXPECT_EQ(engine.pool_slab_grows(), 1u);
  EXPECT_EQ(engine.pool_high_water(), 200u);
}

TEST(Engine, HandleOutlivingEngineIsSafe) {
  // ~Engine nulls the heap back-pointers; a surviving handle must not
  // write through a dangling tally pointer.
  EventHandle survivor;
  {
    Engine engine;
    survivor = engine.schedule_at(Time::from_ms(1), [] {});
  }
  survivor.cancel();  // must not touch freed engine state
  EXPECT_FALSE(survivor.pending());
}

// --- Keyed actions --------------------------------------------------------

// Records which tags ran, in order; can request a stop from inside.
struct KeyedLog : KeyedActionOwner {
  explicit KeyedLog(Engine& e) : engine(e) {}
  void run_keyed_action(std::uint32_t tag) override {
    order.push_back(static_cast<int>(tag));
    if (stop_inside) engine.request_stop();
  }
  Engine& engine;
  std::vector<int> order;
  bool stop_inside = false;
};

TEST(EngineKeyed, ArmedActionsMergeWithQueueEventsInWhenSeqOrder) {
  Engine engine;
  KeyedLog log(engine);
  const std::uint32_t a = engine.add_keyed_slot(&log, 100);
  const std::uint32_t b = engine.add_keyed_slot(&log, 101);
  // Seqs interleave: queue 0, keyed b, queue 1, keyed a, all at one
  // picosecond, plus an earlier queue event scheduled last.
  const Time t = Time::from_us(50);
  engine.schedule_at(t, [&] { log.order.push_back(0); });
  const std::uint64_t seq_b = engine.reserve_seq();
  engine.schedule_at(t, [&] { log.order.push_back(1); });
  const std::uint64_t seq_a = engine.reserve_seq();
  engine.arm(a, {t, seq_a});
  engine.arm(b, {t, seq_b});
  engine.schedule_at(Time::from_us(10), [&] { log.order.push_back(-1); });
  EXPECT_EQ(engine.run_all(), 5u);
  EXPECT_EQ(log.order, (std::vector<int>{-1, 0, 101, 1, 100}));
  EXPECT_EQ(engine.events_fired(), 3u);
  EXPECT_EQ(engine.keyed_fired(), 2u);
  EXPECT_EQ(engine.now(), t);
}

TEST(EngineKeyed, HandedBackKeyKeepsItsDispatchPosition) {
  Engine engine;
  KeyedLog log(engine);
  const std::uint32_t slot = engine.add_keyed_slot(&log, 7);
  const Time t = Time::from_ms(200);
  engine.schedule_at(t, [&] { log.order.push_back(0); });
  engine.arm(slot, {t, engine.reserve_seq()});
  engine.schedule_at(t, [&] { log.order.push_back(2); });
  const Engine::Key key = engine.disarm(slot);
  engine.schedule_keyed(key, [&] { log.order.push_back(1); });
  engine.run_all();
  EXPECT_EQ(log.order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(engine.keyed_fired(), 0u);
  EXPECT_THROW(engine.disarm(slot), std::logic_error);
}

TEST(EngineKeyed, StepLimitAndStopTreatArmedActionsLikeEvents) {
  Engine engine;
  KeyedLog log(engine);
  const std::uint32_t slot = engine.add_keyed_slot(&log, 3);
  engine.arm(slot, {Time::from_us(20), engine.reserve_seq()});
  // A limit before the action leaves it armed.
  EXPECT_EQ(engine.run_until(Time::from_us(19)), 0u);
  EXPECT_EQ(engine.now(), Time::from_us(19));
  EXPECT_TRUE(log.order.empty());
  // step() runs it alone.
  engine.schedule_at(Time::from_us(30), [&] { log.order.push_back(-1); });
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(log.order, (std::vector<int>{3}));
  EXPECT_EQ(engine.now(), Time::from_us(20));
  // A stop requested inside a keyed action ends the run after it.
  log.stop_inside = true;
  engine.arm(slot, {Time::from_us(25), engine.reserve_seq()});
  EXPECT_EQ(engine.run_until(Time::from_us(100)), 1u);
  EXPECT_EQ(engine.now(), Time::from_us(25));
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(log.order, (std::vector<int>{3, 3, -1}));
  EXPECT_FALSE(engine.step());
}

TEST(EngineKeyed, ArmRejectsPastUnreservedOrDoubleKeys) {
  Engine engine;
  KeyedLog log(engine);
  const std::uint32_t slot = engine.add_keyed_slot(&log, 0);
  engine.run_until(Time::from_us(5));
  const std::uint64_t seq = engine.reserve_seq();
  EXPECT_THROW(engine.arm(slot, {Time::from_us(4), seq}), std::logic_error);
  EXPECT_THROW(engine.arm(slot, {Time::from_us(6), seq + 1}),
               std::logic_error);
  engine.arm(slot, {Time::from_us(6), seq});
  EXPECT_THROW(engine.arm(slot, {Time::from_us(6), seq}), std::logic_error);
  EXPECT_THROW(engine.schedule_keyed({Time::from_us(7), seq + 5}, [] {}),
               std::logic_error);
}

// --- In-place completions ------------------------------------------------

// A lone loop on one slot, run the way RichOs runs one: each dispatch
// re-arms the next iteration `period` later, then completes in place, in
// batches, every further iteration that fits. Records every iteration's
// end.
struct LoopOwner : KeyedActionOwner {
  LoopOwner(Engine& e, Duration p)
      : engine(e), period(p), slot(e.add_keyed_slot(this, 0)) {}
  void start() { arm_next(); }
  void arm_next() {
    engine.arm(slot, {engine.now() + period, engine.reserve_seq()});
  }
  void run_keyed_action(std::uint32_t) override {
    ends.push_back(engine.now());
    if (in_action) in_action();
    if (stop_in_action) engine.request_stop();
    horizons.push_back(engine.in_place_horizon());
    arm_next();
    if (in_place) {
      completed += engine.complete_in_place(
          slot, period, [] { return true; },
          [this](std::uint32_t, std::uint64_t n) {
            for (std::uint64_t i = n; i-- > 0;) {
              ends.push_back(engine.now() - period * i);
            }
            if (stop_in_batch) engine.request_stop();
            return engine.now() + period;  // the run re-arms the slot
          });
    }
  }
  // Iterations ended before `t`.
  std::size_t ended_before(Time t) const {
    return static_cast<std::size_t>(
        std::count_if(ends.begin(), ends.end(), [t](Time e) { return e < t; }));
  }
  Engine& engine;
  Duration period;
  std::uint32_t slot;
  std::vector<Time> ends;
  std::vector<Time> horizons;
  std::uint64_t completed = 0;  // by the in-place runs
  bool in_place = true;         // false: every iteration is dispatched
  bool stop_in_batch = false;   // each batch requests a stop
  bool stop_in_action = false;
  std::function<void()> in_action;  // runs in each dispatch, before the run
};

std::vector<Time> every(Duration period, int first, int last) {
  std::vector<Time> out;
  for (int i = first; i <= last; ++i) out.push_back(period * i);
  return out;
}

TEST(EngineKeyed, QueuedEventAtACompletionsPicosecondDispatchesFirst) {
  Engine engine;
  LoopOwner loop(engine, Time::from_us(10));
  std::size_t seen = 0;
  // Reserved before every iteration's key, so it wins the tie at 50 µs.
  engine.schedule_at(Time::from_us(50), [&] { seen = loop.ends.size(); });
  loop.start();
  engine.run_until(Time::from_us(60));
  EXPECT_EQ(seen, 4u);
  EXPECT_EQ(loop.ends, every(Time::from_us(10), 1, 6));
  // 20, 30 and 40 µs in place; 50 µs waited for the event.
  EXPECT_EQ(loop.horizons.front(), Time::from_us(50));
  EXPECT_EQ(engine.keyed_in_place(), 4u);
}

TEST(EngineKeyed, InPlaceCompletionsStopAtTheInclusiveRunLimit) {
  for (const Time limit : {Time::from_us(40), Time::from_us(40) -
                                                  Duration::from_ps(1)}) {
    Engine engine;
    LoopOwner loop(engine, Time::from_us(10));
    loop.start();
    engine.run_until(limit);
    const int last = limit == Time::from_us(40) ? 4 : 3;
    EXPECT_EQ(loop.ends, every(Time::from_us(10), 1, last)) << limit.ps();
    EXPECT_EQ(loop.completed, static_cast<std::uint64_t>(last - 1));
    EXPECT_EQ(engine.now(), limit);
  }
}

TEST(EngineKeyed, StepNeverCompletesInPlace) {
  Engine engine;
  LoopOwner loop(engine, Time::from_us(10));
  loop.start();
  for (int i = 1; i <= 5; ++i) {
    EXPECT_TRUE(engine.step());
    EXPECT_EQ(loop.ends.size(), static_cast<std::size_t>(i));
    EXPECT_EQ(loop.horizons.back(), engine.now());
  }
  EXPECT_EQ(engine.keyed_in_place(), 0u);
  EXPECT_EQ(engine.keyed_fired(), 5u);
}

TEST(EngineKeyed, AStopRequestedInTheBurstEndsIt) {
  Engine engine;
  LoopOwner loop(engine, Time::from_us(10));
  // Bounds the first batch to 20 and 30 µs; the batch requests the stop,
  // so the run ends before the event.
  bool fired = false;
  engine.schedule_at(Time::from_us(35), [&] { fired = true; });
  loop.stop_in_batch = true;
  loop.start();
  EXPECT_EQ(engine.run_until(Time::from_ms(1)), 3u);
  EXPECT_EQ(loop.ends, every(Time::from_us(10), 1, 3));
  EXPECT_EQ(engine.now(), Time::from_us(30));
  EXPECT_FALSE(fired);
  // A stop the action requests before its burst leaves nothing to
  // complete in place: the next run dispatches the event and 40 µs.
  loop.stop_in_batch = false;
  loop.stop_in_action = true;
  EXPECT_EQ(engine.run_until(Time::from_ms(1)), 2u);
  EXPECT_TRUE(fired);
  EXPECT_EQ(loop.horizons.back(), Time::from_us(40));
  EXPECT_EQ(loop.ends, every(Time::from_us(10), 1, 4));
}

TEST(EngineKeyed, AnotherOwnersEarlierArmedSlotBoundsTheBurst) {
  Engine engine;
  LoopOwner loop(engine, Time::from_us(10));
  KeyedLog other(engine);
  const std::uint32_t slot = engine.add_keyed_slot(&other, 9);
  loop.start();
  engine.arm(slot, {Time::from_us(35), engine.reserve_seq()});
  std::size_t seen = 0;
  engine.schedule_at(Time::from_us(36), [&] { seen = loop.ends.size(); });
  engine.run_until(Time::from_us(60));
  EXPECT_EQ(loop.horizons.front(), Time::from_us(35));
  EXPECT_EQ(loop.ended_before(Time::from_us(35)), 3u);
  EXPECT_EQ(other.order, (std::vector<int>{9}));
  EXPECT_EQ(seen, 3u);
  EXPECT_EQ(loop.ends, every(Time::from_us(10), 1, 6));
}

TEST(EngineKeyed, AQueuedEventBoundsTheBurstAtItsOwnTime) {
  Engine engine;
  LoopOwner loop(engine, Time::from_us(10));
  // The horizon is the event's own time, however far out it lies: one
  // burst runs up to it, and one more from the next dispatch to the limit.
  const Time at = Time::from_ps(141'217'728);
  std::size_t seen = 0;
  engine.schedule_at(at, [&] { seen = loop.ends.size(); });
  loop.start();
  engine.run_until(Time::from_us(200));
  EXPECT_EQ(loop.horizons.front(), at);
  EXPECT_EQ(seen, 14u);  // 10 .. 140 µs, 20 .. 140 µs in place
  EXPECT_EQ(loop.ends, every(Time::from_us(10), 1, 20));
  // Dispatched: 10 µs and 150 µs.
  EXPECT_EQ(engine.keyed_fired() - engine.keyed_in_place(), 2u);
}

TEST(EngineKeyed, AnEventCancelledInTheActionDoesNotBoundTheBurst) {
  Engine engine;
  LoopOwner loop(engine, Time::from_us(10));
  bool fired = false;
  EventHandle doomed =
      engine.schedule_at(Time::from_us(55), [&] { fired = true; });
  // Cancelled by the first dispatch itself, while it is the queue's top.
  loop.in_action = [&doomed] { doomed.cancel(); };
  loop.start();
  engine.run_until(Time::from_us(100));
  EXPECT_FALSE(fired);
  EXPECT_EQ(loop.horizons.front(), Time::from_us(100) + Duration::from_ps(1));
  EXPECT_EQ(loop.ends, every(Time::from_us(10), 1, 10));
  EXPECT_EQ(engine.keyed_fired() - engine.keyed_in_place(), 1u);
  EXPECT_EQ(engine.cancelled_popped(), 1u);
}

TEST(EngineKeyed, InPlaceCompletionOutsideItsDispatchThrows) {
  Engine engine;
  LoopOwner loop(engine, Time::from_us(10));
  const auto complete = [&] {
    engine.complete_in_place(
        loop.slot, loop.period, [] { return true; },
        [](std::uint32_t, std::uint64_t) { return Engine::kNoKey; });
  };
  EXPECT_THROW(complete(), std::logic_error);  // outside any run
  bool threw = false;
  engine.schedule_at(Time::from_us(1), [&] {
    try {
      complete();  // inside a queue event
    } catch (const std::logic_error& e) {
      threw = std::string(e.what()).find("outside its own dispatch") !=
              std::string::npos;
    }
  });
  engine.run_all();
  EXPECT_TRUE(threw);
  // Another slot's dispatch may not complete this slot's actions.
  struct Intruder : KeyedActionOwner {
    explicit Intruder(const std::function<void()>& f) : fn(f) {}
    void run_keyed_action(std::uint32_t) override { fn(); }
    std::function<void()> fn;
  } intruder(complete);
  const std::uint32_t intruding = engine.add_keyed_slot(&intruder, 2);
  engine.arm(intruding, {Time::from_us(3), engine.reserve_seq()});
  EXPECT_THROW(engine.run_all(), std::logic_error);
}

TEST(EngineKeyed, RunUntilCountsInPlaceCompletions) {
  Engine engine;
  LoopOwner loop(engine, Time::from_us(10));
  engine.schedule_at(Time::from_us(55), [] {});
  loop.start();
  // Dispatched: 10 µs, the event, 60 µs; in place: 20 .. 50, 70 .. 100.
  EXPECT_EQ(engine.run_until(Time::from_us(100)), 11u);
  EXPECT_EQ(engine.keyed_in_place(), 8u);
  EXPECT_EQ(engine.events_fired() + engine.keyed_fired(), 11u);
}

TEST(EngineKeyed, ANestedRunKeepsTheOuterLimit) {
  Engine engine;
  LoopOwner loop(engine, Time::from_us(10));
  std::size_t inner = 0;
  engine.schedule_at(Time::from_us(5), [&] {
    inner = engine.run_until(Time::from_us(25));
  });
  loop.start();
  // The event, 30 µs, and 40 .. 60 µs in place: the nested run completed
  // 10 (dispatched) and 20 µs (in place) within its own limit, and the
  // outer one then ran in place to its own.
  EXPECT_EQ(engine.run_until(Time::from_us(60)), 5u);
  EXPECT_EQ(inner, 2u);
  EXPECT_EQ(loop.ends, every(Time::from_us(10), 1, 6));
  EXPECT_EQ(engine.keyed_in_place(), 4u);
}

// --- Multi-slot in-place runs ----------------------------------------------

// Installs a flight recorder for its lifetime. The one-record ring keeps
// the newest commit; the chain folds every one.
struct Recording {
  Recording() : flight(options()) { obs::install_flight(&flight); }
  ~Recording() { obs::install_flight(nullptr); }
  static obs::FlightRecorder::Options options() {
    obs::FlightRecorder::Options o;
    o.ring = 1;
    return o;
  }
  obs::FlightRecorder flight;
};

TEST(EngineKeyed, AnInPlaceRunWritesTheDispatchedRoundsCommits) {
  // Queued events at uneven times bound the runs, so batches of several
  // lengths happen; they must commit the same (when, seq) stream and
  // complete the same iterations as the loop dispatched round by round.
  std::vector<std::uint64_t> chains, commits, keyed;
  std::vector<std::vector<Time>> ends;
  for (const bool in_place : {false, true}) {
    Engine engine;
    const Recording recording;
    LoopOwner loop(engine, Time::from_us(10));
    loop.in_place = in_place;
    for (const int us : {37, 38, 95, 241, 242, 600}) {
      engine.schedule_at(Time::from_us(us), [] {});
    }
    loop.start();
    engine.run_until(Time::from_ms(1));
    EXPECT_EQ(engine.keyed_in_place(), loop.completed) << in_place;
    EXPECT_EQ(loop.completed > 80u, in_place) << loop.completed;
    chains.push_back(recording.flight.chain_hash());
    commits.push_back(recording.flight.commits());
    keyed.push_back(engine.keyed_fired());
    ends.push_back(loop.ends);
  }
  EXPECT_EQ(chains[1], chains[0]);
  EXPECT_EQ(commits[1], commits[0]);
  EXPECT_EQ(keyed[1], keyed[0]);
  EXPECT_EQ(ends[1], ends[0]);
  EXPECT_EQ(ends[0], every(Time::from_us(10), 1, 100));
}

// A loop and its core's tick, the way RichOs runs a lone loop core whose
// tick only keeps books: each dispatch of the loop re-arms it and
// completes its further rounds in place, with the tick's slot joined to
// the run; the tick re-arms itself `tick_period` after it runs, whether
// dispatched or joined. Logs every round's end ('L') and tick ('T').
struct TickedLoop : KeyedActionOwner {
  TickedLoop(Engine& e, Duration p, Duration q)
      : engine(e),
        period(p),
        tick_period(q),
        loop(e.add_keyed_slot(this, 0)),
        tick(e.add_keyed_slot(this, 1)) {}
  // Arms the first tick, then the first round.
  void start() {
    engine.arm(tick, {engine.now() + tick_period, engine.reserve_seq()});
    engine.arm(loop, {engine.now() + period, engine.reserve_seq()});
  }
  void run_keyed_action(std::uint32_t tag) override {
    if (tag == 1) {
      on_tick();
      return;
    }
    log.emplace_back('L', engine.now());
    engine.arm(loop, {engine.now() + period, engine.reserve_seq()});
    if (!in_place) return;
    const std::uint32_t joined[] = {tick};
    returned.push_back(engine.complete_in_place(
        loop, period, [] { return true; },
        [this](std::uint32_t slot, std::uint64_t n) {
          if (slot == tick) {
            on_tick();  // re-arms the tick itself
            return Engine::kNoKey;
          }
          for (std::uint64_t i = n; i-- > 0;) {
            log.emplace_back('L', engine.now() - period * i);
          }
          return engine.now() + period;
        },
        joined));
  }
  void on_tick() {
    log.emplace_back('T', engine.now());
    if (in_tick) in_tick();
    engine.arm(tick, {engine.now() + tick_period, engine.reserve_seq()});
  }
  // The order of the round and the tick that end at `t`.
  std::string order_at(Time t) const {
    std::string out;
    for (const auto& [what, when] : log) {
      if (when == t) out += what;
    }
    return out;
  }
  Engine& engine;
  Duration period;
  Duration tick_period;
  std::uint32_t loop;
  std::uint32_t tick;
  bool in_place = true;  // false: every round and tick is dispatched
  std::function<void()> in_tick;
  std::vector<std::pair<char, Time>> log;
  std::vector<std::uint64_t> returned;  // by each in-place run
};

// Runs a TickedLoop to `limit`, and again with every round and tick
// dispatched one by one, each under a flight recorder.
struct TickedRuns {
  TickedRuns(Duration period, Duration tick_period, Time limit)
      : fast(fast_engine, period, tick_period),
        stepped(stepped_engine, period, tick_period) {
    stepped.in_place = false;
    for (auto [loop, chain] : {std::pair{&fast, &fast_chain},
                               std::pair{&stepped, &stepped_chain}}) {
      const Recording recording;
      loop->start();
      loop->engine.run_until(limit);
      *chain = recording.flight.chain_hash();
    }
  }
  Engine fast_engine;
  Engine stepped_engine;
  TickedLoop fast;
  TickedLoop stepped;
  std::uint64_t fast_chain = 0;
  std::uint64_t stepped_chain = 0;
};

TEST(EngineKeyed, ATiedTickAndRoundRunInSeqOrderInPlace) {
  // Same-producer reordering: a core's tick and its loop's round end in
  // one picosecond, and the one holding the older seq goes first. With
  // 10 µs rounds and 40 µs ticks the tick's seq, reserved a tick earlier,
  // is older; with 50 µs rounds and 20 µs ticks the round's is.
  struct Case {
    Duration period, tick_period;
    Time tie;
    const char* order;
  };
  for (const Case& c : {Case{Time::from_us(10), Time::from_us(40),
                             Time::from_us(40), "TL"},
                        Case{Time::from_us(50), Time::from_us(20),
                             Time::from_us(100), "LT"}}) {
    const TickedRuns runs(c.period, c.tick_period, Time::from_us(400));
    EXPECT_EQ(runs.stepped.order_at(c.tie), c.order) << c.order;
    EXPECT_EQ(runs.fast.log, runs.stepped.log) << c.order;
    EXPECT_EQ(runs.fast_chain, runs.stepped_chain) << c.order;
    EXPECT_EQ(runs.fast_engine.now(), runs.stepped_engine.now()) << c.order;
    EXPECT_GT(runs.fast_engine.keyed_in_place(), 10u) << c.order;
    EXPECT_EQ(runs.fast_engine.keyed_fired(),
              runs.stepped_engine.keyed_fired())
        << c.order;
  }
}

TEST(EngineKeyed, ARunWhoseOwnSlotIsDueFirstStillMakesProgress) {
  // Horizon deadlock: the joined tick is due before every next round.
  // Counted in the horizon it would end each run at once; joined, one
  // dispatch of the loop runs to the limit.
  const TickedRuns runs(Time::from_us(50), Time::from_us(20),
                        Time::from_ms(1));
  EXPECT_EQ(runs.fast.log, runs.stepped.log);
  EXPECT_EQ(runs.fast_chain, runs.stepped_chain);
  // Dispatched: the ticks at 20 and 40 µs and the round at 50 µs. The run
  // completes the rest, the tick tied with its last round at 1 ms too.
  ASSERT_EQ(runs.fast.returned.size(), 1u);
  EXPECT_EQ(runs.fast.returned.front(), runs.fast.log.size() - 3);
  EXPECT_EQ(
      runs.fast_engine.keyed_fired() - runs.fast_engine.keyed_in_place(), 3u);
}

// Disarms every slot of `engine` in `slots` and returns their keys.
std::vector<std::pair<Time, std::uint64_t>> disarm_all(
    Engine& engine, const std::vector<std::uint32_t>& slots) {
  std::vector<std::pair<Time, std::uint64_t>> keys;
  for (const std::uint32_t slot : slots) {
    const Engine::Key key = engine.disarm(slot);
    keys.emplace_back(key.when, key.seq);
  }
  return keys;
}

TEST(EngineKeyed, AJoinedActionThatPullsTheHorizonInEndsTheRunAfterIt) {
  // A joined tick schedules a queue event 1 ps on, before the round it
  // precedes: the run ends after that tick, every slot armed at the key
  // the event path gave it; the event dispatches, then the round, which
  // starts the next run. Dispatched one by one, everything is the same.
  std::vector<std::vector<std::pair<char, Time>>> logs;
  std::vector<std::uint64_t> chains, fired, next_seqs;
  std::vector<std::vector<std::pair<Time, std::uint64_t>>> keys;
  for (const bool in_place : {false, true}) {
    Engine engine;
    TickedLoop loop(engine, Time::from_us(50), Time::from_us(20));
    loop.in_place = in_place;
    loop.in_tick = [&engine, &loop] {
      engine.schedule_at(engine.now() + Duration::from_ps(1), [&loop] {
        loop.log.emplace_back('E', loop.engine.now());
      });
    };
    const Recording recording;
    loop.start();
    engine.run_until(Time::from_us(230));
    if (in_place) {
      // Runs from the rounds at 50, 100, 150 and 200 µs, each ended by
      // the first tick it joined.
      EXPECT_EQ(loop.returned, (std::vector<std::uint64_t>{1, 1, 1, 1}));
    }
    logs.push_back(loop.log);
    chains.push_back(recording.flight.chain_hash());
    fired.push_back(engine.keyed_fired() + engine.events_fired());
    keys.push_back(disarm_all(engine, {loop.loop, loop.tick}));
    next_seqs.push_back(engine.reserve_seq());
  }
  EXPECT_EQ(logs[1], logs[0]);
  EXPECT_EQ(chains[1], chains[0]);
  EXPECT_EQ(fired[1], fired[0]);
  EXPECT_EQ(keys[1], keys[0]);
  EXPECT_EQ(next_seqs[1], next_seqs[0]);
}

// Duty cycles on several slots, the way RichOs runs KProber-II's tied
// prober cores: each member alternates a compute step and a sleep step,
// and all deploy at one instant, so their actions tie in the same
// picoseconds, ordered by seq. A dispatched action re-arms its member's
// slot, then runs every other member joined; with `in_place` false every
// action is dispatched. Logs every action as (member, time).
struct Cohort : KeyedActionOwner {
  struct Member {
    Duration compute;
    Duration sleep;
    std::uint32_t slot = 0;
    bool computing = false;
  };
  Cohort(Engine& e, std::vector<Member> m) : engine(e), members(std::move(m)) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      members[i].slot =
          engine.add_keyed_slot(this, static_cast<std::uint32_t>(i));
      slots.push_back(members[i].slot);
    }
  }
  // Arms every member's first wake-up at `at`, in member order.
  void start(Time at) {
    for (const Member& m : members) {
      engine.arm(m.slot, {at, engine.reserve_seq()});
    }
  }
  // One action of member `tag`; returns when its next one is due.
  Time step(std::uint32_t tag) {
    Member& m = members[tag];
    log.emplace_back(tag, engine.now());
    if (in_step) in_step(tag);
    const Duration next = m.computing ? m.sleep : m.compute;
    m.computing = !m.computing;
    return engine.now() + next;
  }
  void run_keyed_action(std::uint32_t tag) override {
    engine.arm(members[tag].slot, {step(tag), engine.reserve_seq()});
    if (!in_place) return;
    std::vector<std::uint32_t> joined;
    for (const std::uint32_t slot : slots) {
      if (slot != members[tag].slot) joined.push_back(slot);
    }
    returned.push_back(engine.complete_in_place(
        members[tag].slot, Duration::zero(), [] { return false; },
        [this](std::uint32_t slot, std::uint64_t n) {
          EXPECT_EQ(n, 1u);
          return step(slot - slots.front());
        },
        joined));
  }
  // The members that act at `t`, in order.
  std::string order_at(Time t) const {
    std::string out;
    for (const auto& [tag, when] : log) {
      if (when == t) out += static_cast<char>('0' + tag);
    }
    return out;
  }
  Engine& engine;
  std::vector<Member> members;
  std::vector<std::uint32_t> slots;
  bool in_place = true;
  std::function<void(std::uint32_t)> in_step;
  std::vector<std::pair<std::uint32_t, Time>> log;
  std::vector<std::uint64_t> returned;  // by each in-place run
};

// Runs a Cohort to `limit` in place and dispatched one by one, each under
// a flight recorder, and checks that the two agree.
struct CohortRuns {
  CohortRuns(const std::vector<Cohort::Member>& members, Time start,
             Time limit)
      : fast(fast_engine, members), stepped(stepped_engine, members) {
    stepped.in_place = false;
    for (auto [cohort, chain] : {std::pair{&fast, &fast_chain},
                                 std::pair{&stepped, &stepped_chain}}) {
      const Recording recording;
      cohort->start(start);
      cohort->engine.run_until(limit);
      *chain = recording.flight.chain_hash();
    }
  }
  void expect_agree() {
    EXPECT_EQ(fast.log, stepped.log);
    EXPECT_EQ(fast_chain, stepped_chain);
    EXPECT_EQ(fast_engine.keyed_fired(), stepped_engine.keyed_fired());
    EXPECT_EQ(fast_engine.now(), stepped_engine.now());
    EXPECT_EQ(disarm_all(fast_engine, fast.slots),
              disarm_all(stepped_engine, stepped.slots));
  }
  Engine fast_engine;
  Engine stepped_engine;
  Cohort fast;
  Cohort stepped;
  std::uint64_t fast_chain = 0;
  std::uint64_t stepped_chain = 0;
};

TEST(EngineKeyed, TiedDutyCyclesRunInSeqOrderInPlace) {
  // Same-producer reordering across three tied slots: all wake at 10 µs in
  // member order, complete at 14, 12 and 13 µs, and each re-arms its next
  // wake-up for 210 µs as it completes. So at 210 µs member 1 holds the
  // oldest seq and member 0 the newest, and each member's key stays behind
  // the older ones it was re-armed after.
  CohortRuns runs({{Time::from_us(4), Time::from_us(196)},
                   {Time::from_us(2), Time::from_us(198)},
                   {Time::from_us(3), Time::from_us(197)}},
                  Time::from_us(10), Time::from_ms(2));
  EXPECT_EQ(runs.stepped.order_at(Time::from_us(10)), "012");
  EXPECT_EQ(runs.stepped.order_at(Time::from_us(210)), "120");
  // One dispatch runs the whole window and every later one.
  EXPECT_EQ(runs.fast.returned.size(), 1u);
  EXPECT_EQ(
      runs.fast_engine.keyed_fired() - runs.fast_engine.keyed_in_place(), 1u);
  runs.expect_agree();
}

TEST(EngineKeyed, JoinedSlotsDueBeforeTheDispatchedOneStillRun) {
  // Horizon deadlock: member 0 dispatches first and sleeps 300 µs, so each
  // of the three others is due before its next key, many times over.
  // Counted in the horizon they would end the run at once; joined, that
  // one dispatch runs them all to the limit.
  CohortRuns runs({{Time::from_us(2), Time::from_us(300)},
                   {Time::from_us(1), Time::from_us(50)},
                   {Time::from_us(1), Time::from_us(60)},
                   {Time::from_us(1), Time::from_us(70)}},
                  Time::from_us(5), Time::from_ms(1));
  ASSERT_EQ(runs.fast.returned.size(), 1u);
  EXPECT_EQ(runs.fast.returned.front(), runs.fast.log.size() - 1);
  EXPECT_GT(runs.fast.log.size(), 60u);
  runs.expect_agree();
}

TEST(EngineKeyed, ATiedRunStopsAtForeignKeysAndResumesAfterThem) {
  // Queued events at a tied window's picosecond (reserved before or after
  // the cohort's keys), an armed slot of another owner, and a stop: each
  // ends the run where dispatch would have run it.
  for (const int variant : {0, 1, 2, 3}) {
    std::vector<std::vector<std::pair<std::uint32_t, Time>>> logs;
    std::vector<std::uint64_t> chains;
    std::vector<std::vector<std::pair<Time, std::uint64_t>>> keys;
    std::vector<std::string> order;
    for (const bool in_place : {false, true}) {
      Engine engine;
      KeyedLog other(engine);
      const std::uint32_t foreign = engine.add_keyed_slot(&other, 9);
      Cohort cohort(engine, {{Time::from_us(2), Time::from_us(200)},
                             {Time::from_us(2), Time::from_us(200)},
                             {Time::from_us(2), Time::from_us(200)}});
      cohort.in_place = in_place;
      std::string seen;
      const auto mark = [&seen, &cohort](char c) {
        seen += c;
        seen += std::to_string(cohort.log.size());
      };
      if (variant == 0) {
        engine.schedule_at(Time::from_us(204), [&] { mark('E'); });
      }
      cohort.start(Time::from_us(2));
      if (variant == 1) {
        engine.schedule_at(Time::from_us(204), [&] { mark('E'); });
      }
      if (variant == 2) {
        engine.arm(foreign, {Time::from_us(204), engine.reserve_seq()});
      }
      if (variant == 3) {
        cohort.in_step = [&engine](std::uint32_t tag) {
          if (tag == 1 && engine.now() == Time::from_us(204)) {
            engine.request_stop();
          }
        };
      }
      const Recording recording;
      engine.run_until(Time::from_us(700));
      if (variant == 3) engine.run_until(Time::from_us(700));
      logs.push_back(cohort.log);
      chains.push_back(recording.flight.chain_hash());
      keys.push_back(disarm_all(engine, cohort.slots));
      order.push_back(seen + std::to_string(other.order.size()));
    }
    EXPECT_EQ(logs[1], logs[0]) << variant;
    EXPECT_EQ(chains[1], chains[0]) << variant;
    EXPECT_EQ(keys[1], keys[0]) << variant;
    EXPECT_EQ(order[1], order[0]) << variant;
  }
}

}  // namespace
}  // namespace satin::sim
