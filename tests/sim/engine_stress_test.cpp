// Engine stress: callbacks that cancel and reschedule other events (and
// themselves) mid-run, determinism of the resulting storm for a fixed
// seed, and handle safety after events fire.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "obs/flight/recorder.h"
#include "sim/engine.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace satin::sim {
namespace {

// A self-perturbing event storm: every firing event records itself, then
// randomly cancels a live handle (possibly its own, already-fired one)
// and schedules a replacement. Exercises cancel-while-queued,
// cancel-after-fire, and schedule-from-callback all at once.
struct Storm {
  explicit Storm(std::uint64_t seed) : rng(seed) {}

  Engine engine;
  Rng rng;
  std::vector<EventHandle> handles;
  std::vector<int> fired;
  int next_id = 0;
  int spawned = 0;
  static constexpr int kMaxSpawns = 600;

  void spawn(Duration delay) {
    if (spawned >= kMaxSpawns) return;
    ++spawned;
    const int id = next_id++;
    handles.push_back(engine.schedule_after(delay, [this, id] { fire(id); }));
  }

  void fire(int id) {
    fired.push_back(id);
    // Cancel a pseudo-random handle: may be pending, may have fired long
    // ago, may be the very handle running this callback.
    EventHandle& victim = handles[rng.index(handles.size())];
    victim.cancel();
    EXPECT_FALSE(victim.pending());
    // Replace it with up to two descendants.
    spawn(Duration::from_us(static_cast<std::int64_t>(rng.index(500)) + 1));
    if (rng.bernoulli(0.4)) {
      spawn(Duration::from_us(static_cast<std::int64_t>(rng.index(500)) + 1));
    }
  }

  void run(std::uint64_t initial) {
    for (std::uint64_t i = 0; i < initial; ++i) {
      spawn(Duration::from_us(static_cast<std::int64_t>(rng.index(200)) + 1));
    }
    engine.run_all();
  }
};

TEST(EngineStress, CancelAndRescheduleFromCallbacksTerminates) {
  Storm storm(17);
  storm.run(20);
  EXPECT_EQ(storm.engine.pending_count(), 0u);
  EXPECT_FALSE(storm.fired.empty());
  EXPECT_LE(storm.fired.size(),
            static_cast<std::size_t>(Storm::kMaxSpawns));
  // Nothing fires twice: every id in the log is unique.
  std::vector<int> ids = storm.fired;
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(EngineStress, StormIsDeterministicForAFixedSeed) {
  Storm a(99), b(99);
  a.run(25);
  b.run(25);
  EXPECT_EQ(a.fired, b.fired);
  EXPECT_EQ(a.engine.now(), b.engine.now());
  EXPECT_EQ(a.engine.events_fired(), b.engine.events_fired());
  EXPECT_EQ(a.engine.cancelled_popped(), b.engine.cancelled_popped());
  // The queue and memory-model counters are part of the determinism
  // contract too: identical schedules must grow the queue, compact it and
  // recycle slots identically.
  EXPECT_EQ(a.engine.queue_high_water(), b.engine.queue_high_water());
  EXPECT_EQ(a.engine.compactions(), b.engine.compactions());
  EXPECT_EQ(a.engine.pool_reuses(), b.engine.pool_reuses());
  EXPECT_EQ(a.engine.pool_high_water(), b.engine.pool_high_water());
}

TEST(EngineStress, StormRecyclesSlotsInsteadOfGrowingSlabs) {
  // 600 spawned events with bounded concurrent occupancy: the pool must
  // serve the storm from recycled slots, not by growing slab after slab.
  Storm storm(17);
  storm.run(20);
  EXPECT_GT(storm.engine.pool_reuses(), 0u);
  EXPECT_EQ(storm.engine.pool_slab_grows(), 1u);
  EXPECT_LE(storm.engine.pool_high_water(), 256u);
  EXPECT_GT(storm.engine.callbacks_inline(), 0u);
}

TEST(EngineStress, DifferentSeedsDiverge) {
  Storm a(1), b(2);
  a.run(25);
  b.run(25);
  EXPECT_NE(a.fired, b.fired);
}

TEST(EngineStress, HandlesStaySafeAfterTheirEventsFired) {
  // Handles outlive their events (shared state, no dangling): querying
  // and cancelling long-fired or long-cancelled handles is benign.
  Storm storm(5);
  storm.run(20);
  for (EventHandle& h : storm.handles) {
    EXPECT_FALSE(h.pending());
    const Time when = h.when();
    EXPECT_GE(when, Time::zero());
    h.cancel();  // idempotent on fired/cancelled events
    EXPECT_FALSE(h.pending());
  }
}

TEST(EngineStress, SelfCancellationInsideOwnCallbackIsBenign) {
  Engine engine;
  EventHandle self;
  bool ran = false;
  self = engine.schedule_after(Duration::from_us(1), [&] {
    ran = true;
    self.cancel();  // already firing: must be a no-op, not a crash
    EXPECT_FALSE(self.pending());
  });
  engine.run_all();
  EXPECT_TRUE(ran);
  EXPECT_FALSE(self.pending());
}

// Seeded random traffic checked against a test-side reference of the
// engine's (when, seq) order. The test mirrors the engine's seq counter
// (schedule_at, reserve_seq, every round completed in place and every
// re-arm an in-place run makes take one; schedule_keyed takes none), so it
// knows the key of every queued event and armed keyed action, and keeps
// the live ones in a sorted set. Every dispatch, each action run in place
// included, must be the set's minimum, every round a batch completes must
// come strictly before it, and the flight stream's kDispatch records must
// be exactly the dispatches the test saw, in order. Actions run in place
// make random traffic too, which may pull the run's horizon in or take a
// participant's key out of the run.
class ReferenceTraffic : public KeyedActionOwner {
 public:
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (when ps, seq)

  explicit ReferenceTraffic(std::uint64_t seed) : rng_(seed) {
    // Slots 0-2 are plain. Slot 3 is a loop: each dispatch re-arms it and
    // runs its further rounds in place, the way RichOs runs a lone
    // mini-UnixBench loop. On even seeds its core's tick joins those runs.
    // On seeds divisible by 3, three duty cycles deployed at one instant
    // tie all run long and run each other's actions in place, the way
    // RichOs runs KProber-II's prober cores.
    const Duration period = Duration::from_us(3 + 7 * (seed % 3));
    std::vector<Kind> kinds = {Kind::kPlain, Kind::kPlain, Kind::kPlain,
                               Kind::kLoop};
    if (seed % 2 == 0) kinds.push_back(Kind::kTick);
    if (seed % 3 == 0) kinds.insert(kinds.end(), 3, Kind::kDuty);
    for (std::uint32_t tag = 0; tag < kinds.size(); ++tag) {
      const Kind kind = kinds[tag];
      slots_.push_back(Slot{engine.add_keyed_slot(this, tag), kind,
                            kind == Kind::kTick ? period * 4 : period});
    }
  }

  void run(int rounds) {
    // Installed for the run and uninstalled on every way out of it, so an
    // engine that throws leaves no dead recorder behind for the next test.
    struct Recording {
      Recording() { obs::install_flight(&flight); }
      ~Recording() { obs::install_flight(nullptr); }
      obs::FlightRecorder flight;
    } recording;
    for (int i = 0; i < 40; ++i) act();
    // The duty cycles deploy at one instant.
    const Time deploy = engine.now() + Duration::from_us(5);
    for (Slot& slot : slots_) {
      if (slot.kind == Kind::kDuty && !slot.armed) arm(slot, deploy);
    }
    for (int r = 0; r < rounds; ++r) {
      act();
      const std::size_t before = dispatched.size();
      if (rng_.bernoulli(0.3)) {
        const bool any = !live.empty();
        EXPECT_EQ(engine.step(), any);
        EXPECT_EQ(dispatched.size(), before + (any ? 1 : 0));
        continue;
      }
      const Time limit =
          engine.now() + Duration::from_ns(rng_.uniform_int(0, 3'000'000));
      const std::size_t ran = engine.run_until(limit);
      EXPECT_EQ(ran, dispatched.size() - before);
      if (!engine.stop_requested()) {
        EXPECT_EQ(engine.now(), limit);
        EXPECT_TRUE(live.empty() || live.begin()->first > limit.ps());
      }
    }
    // Drain: no new traffic, no re-arms, no bursts.
    budget_ = 0;
    engine.run_all();
    std::vector<Key> recorded;
    for (const obs::FlightRecord& r : recording.flight.snapshot()) {
      if (r.kind == static_cast<std::uint16_t>(obs::FlightKind::kDispatch)) {
        recorded.emplace_back(r.t_ps, r.seq);
      }
    }
    EXPECT_EQ(recorded, dispatched);
  }

  Engine engine;
  std::set<Key> live;
  std::set<Key> cancelled;
  std::vector<Key> dispatched;
  std::uint64_t in_place = 0;  // actions and rounds run in place
  std::uint64_t joined = 0;    // ticks run in place
  std::uint64_t tied = 0;      // duty-cycle actions run in place
  int handed_back = 0;
  bool has_tick() const {
    return std::any_of(slots_.begin(), slots_.end(),
                       [](const Slot& s) { return s.kind == Kind::kTick; });
  }
  bool has_cohort() const {
    return std::any_of(slots_.begin(), slots_.end(),
                       [](const Slot& s) { return s.kind == Kind::kDuty; });
  }

 private:
  // A plain slot is armed at random. A loop re-arms a period after each
  // dispatch and completes its further rounds in place; a tick re-arms a
  // period after each run, whether dispatched or joined to the loop's run.
  // A duty cycle alternates a 2 µs compute and a `period` sleep.
  enum class Kind { kPlain, kLoop, kTick, kDuty };
  struct Slot {
    std::uint32_t id;
    Kind kind;
    Duration period;  // a loop's round, a tick's, a duty cycle's sleep
    bool armed = false;
    Key key{};
    bool computing = false;  // a duty cycle's next action is a completion
  };
  struct Scheduled {
    EventHandle handle;
    Key key;
  };

  // When a duty cycle's next action is due after one at now().
  Time next_step(Slot& slot) {
    const Duration step =
        slot.computing ? slot.period : Duration::from_us(2);
    slot.computing = !slot.computing;
    return engine.now() + step;
  }

  void run_keyed_action(std::uint32_t tag) override {
    Slot& slot = slots_[tag];
    EXPECT_TRUE(slot.armed);
    slot.armed = false;
    dispatch(slot.key);
    if (slot.kind == Kind::kTick) {
      tick(slot);
      return;
    }
    if (slot.kind == Kind::kLoop || slot.kind == Kind::kDuty) {
      if (budget_ > 0) {
        arm(slot, slot.kind == Kind::kLoop ? engine.now() + slot.period
                                           : next_step(slot));
      }
      complete_in_place(slot);
    }
    act();
    if (budget_ > 0 && !slot.armed && slot.kind == Kind::kPlain &&
        rng_.bernoulli(0.5)) {
      arm(slot, engine.now() + delay());
    }
  }

  void tick(Slot& slot) {
    if (budget_ > 0) arm(slot, engine.now() + slot.period);
  }

  // The dispatched slot's in-place run: a loop's with the tick joined, a
  // duty cycle's with the other duty cycles joined.
  void complete_in_place(Slot& own) {
    std::vector<std::uint32_t> joined_slots;
    for (const Slot& s : slots_) {
      if (s.id == own.id) continue;
      if ((own.kind == Kind::kLoop && s.kind == Kind::kTick) ||
          (own.kind == Kind::kDuty && s.kind == Kind::kDuty)) {
        joined_slots.push_back(s.id);
      }
    }
    in_place += engine.complete_in_place(
        own.id, own.kind == Kind::kLoop ? own.period : Duration::zero(),
        [this] { return budget_ > 0; },
        [&](std::uint32_t id, std::uint64_t n) {
          Slot& slot = *std::find_if(
              slots_.begin(), slots_.end(),
              [id](const Slot& s) { return s.id == id; });
          EXPECT_TRUE(slot.armed);
          slot.armed = false;
          EXPECT_TRUE(n == 1 || slot.kind == Kind::kLoop);
          dispatch(slot.key, engine.now() - slot.period * (n - 1));
          // A batch's rounds 2..n, which come before every live key.
          for (std::uint64_t i = n - 1; i-- > 0;) {
            const Key key{(engine.now() - slot.period * i).ps(), seq_++};
            EXPECT_TRUE(live.empty() || key < *live.begin());
            dispatched.push_back(key);
          }
          if (slot.kind == Kind::kTick) {
            ++joined;
            tick(slot);
          } else if (slot.kind == Kind::kDuty) {
            ++tied;
          }
          // Traffic from inside the run: events before the next key, arms
          // outside the run, a participant's key disarmed, a stop.
          if (rng_.bernoulli(0.05)) act();
          if (slot.kind == Kind::kTick || slot.armed || budget_ == 0) {
            return Engine::kNoKey;
          }
          // The run re-arms the slot with the next seq.
          const Time next = slot.kind == Kind::kLoop
                                ? engine.now() + slot.period
                                : next_step(slot);
          slot.key = {next.ps(), seq_++};
          slot.armed = true;
          live.insert(slot.key);
          return next;
        },
        joined_slots);
  }

  // A dispatch at `key`, which must end at `at` (now(), unless a batch
  // moved the clock to its last round).
  void dispatch(const Key& key) { dispatch(key, engine.now()); }
  void dispatch(const Key& key, Time at) {
    EXPECT_EQ(at.ps(), key.first);
    ASSERT_FALSE(live.empty()) << "dispatched " << key.first << "/"
                               << key.second << " with nothing live";
    EXPECT_EQ(*live.begin(), key);
    EXPECT_EQ(cancelled.count(key), 0u);
    live.erase(key);
    dispatched.push_back(key);
  }

  void on_event(const Key& key) {
    dispatch(key);
    act();
    if (rng_.bernoulli(0.3)) act();
    if (budget_ > 0 && rng_.bernoulli(0.01)) engine.request_stop();
  }

  // 1 µs to 200 ms out, a third of them within 100 µs.
  Duration delay() {
    const std::int64_t max_ns = std::array<std::int64_t, 3>{
        100'000, 68'000'000, 200'000'000}[rng_.index(3)];
    return Duration::from_ns(rng_.uniform_int(1'000, max_ns));
  }

  // Sometimes the picosecond of a live key, so that seqs decide ties.
  Time when() {
    if (!live.empty() && rng_.bernoulli(0.1)) {
      const auto at = std::next(live.begin(),
                                static_cast<std::ptrdiff_t>(
                                    rng_.index(live.size())));
      return Time::from_ps(at->first);
    }
    return engine.now() + delay();
  }

  void schedule(Time at) {
    const Key key{at.ps(), seq_++};
    scheduled_.push_back(
        {engine.schedule_at(at, [this, key] { on_event(key); }), key});
    live.insert(key);
  }

  // Cancels a random handle: pending, cancelled, fired or handed back.
  void cancel_one() {
    if (scheduled_.empty()) return;
    Scheduled& s = scheduled_[rng_.index(scheduled_.size())];
    if (s.handle.pending()) {
      EXPECT_EQ(live.erase(s.key), 1u);
      cancelled.insert(s.key);
    }
    s.handle.cancel();
    EXPECT_FALSE(s.handle.pending());
  }

  void arm(Slot& slot, Time at) {
    EXPECT_EQ(engine.reserve_seq(), seq_);
    slot.key = {at.ps(), seq_++};
    slot.armed = true;
    engine.arm(slot.id, {at, slot.key.second});
    live.insert(slot.key);
  }

  // Disarms a random armed slot and hands half the keys back to the
  // queue, where they keep their dispatch position.
  void disarm_one() {
    Slot& slot = slots_[rng_.index(slots_.size())];
    if (!slot.armed) return;
    const Engine::Key key = engine.disarm(slot.id);
    slot.armed = false;
    EXPECT_EQ(Key(key.when.ps(), key.seq), slot.key);
    if (!rng_.bernoulli(0.5)) {
      live.erase(slot.key);
      cancelled.insert(slot.key);
      return;
    }
    const Key back = slot.key;
    scheduled_.push_back(
        {engine.schedule_keyed(key, [this, back] { on_event(back); }), back});
    ++handed_back;
  }

  // Schedules 80 events 100 to 200 ms out and cancels 60 of them, which
  // leaves cancelled entries in the majority for lazy compaction.
  void flood() {
    const std::size_t first = scheduled_.size();
    for (int i = 0; i < 80; ++i) {
      schedule(engine.now() +
               Duration::from_ns(rng_.uniform_int(100'000'000, 200'000'000)));
    }
    for (std::size_t i = first; i < first + 60; ++i) {
      live.erase(scheduled_[i].key);
      cancelled.insert(scheduled_[i].key);
      scheduled_[i].handle.cancel();
    }
  }

  // One random piece of traffic, while the budget lasts.
  void act() {
    if (budget_ == 0) return;
    --budget_;
    const double u = rng_.uniform();
    if (u < 0.45) {
      schedule(when());
    } else if (u < 0.65) {
      cancel_one();
    } else if (u < 0.8) {
      Slot& slot = slots_[rng_.index(slots_.size())];
      if (!slot.armed) arm(slot, when());
    } else if (u < 0.95) {
      disarm_one();
    } else if (u < 0.955) {
      flood();
    }
  }

  Rng rng_;
  std::vector<Slot> slots_;
  std::vector<Scheduled> scheduled_;
  std::uint64_t seq_ = 0;  // the engine's next seq
  int budget_ = 6000;
};

TEST(EngineStress, DispatchOrderMatchesASortedReference) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    ReferenceTraffic traffic(seed);
    traffic.run(1500);
    const Engine& engine = traffic.engine;
    EXPECT_TRUE(traffic.live.empty());
    EXPECT_EQ(engine.pending_count(), 0u);
    EXPECT_EQ(engine.events_fired() + engine.keyed_fired(),
              traffic.dispatched.size());
    EXPECT_EQ(engine.keyed_in_place(), traffic.in_place);
    // The traffic reached every path it is meant to check.
    EXPECT_GT(traffic.in_place, 0u);
    EXPECT_EQ(traffic.joined > 0, traffic.has_tick());
    EXPECT_EQ(traffic.tied > 100, traffic.has_cohort());
    EXPECT_GT(traffic.handed_back, 0);
    EXPECT_GT(traffic.cancelled.size(), 100u);
    EXPECT_GT(engine.compactions(), 0u);
  }
}

TEST(EngineStress, CancelledEventsNeverFireEvenWhenCancelledMidRun) {
  Engine engine;
  int fired = 0;
  std::vector<EventHandle> victims;
  victims.reserve(50);
  for (int i = 0; i < 50; ++i) {
    victims.push_back(
        engine.schedule_at(Time::from_us(100 + i), [&fired] { ++fired; }));
  }
  // One early event cancels every other victim from inside the run.
  engine.schedule_at(Time::from_us(50), [&victims] {
    for (std::size_t i = 0; i < victims.size(); i += 2) victims[i].cancel();
  });
  engine.run_all();
  EXPECT_EQ(fired, 25);
}

}  // namespace
}  // namespace satin::sim
