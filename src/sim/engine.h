// Discrete-event simulation engine.
//
// The whole reproduction runs on one of these: hardware timers, scheduler
// ticks, introspection scans, prober wake-ups are all events. Events at
// equal timestamps fire in scheduling order (a monotone sequence number
// breaks ties), which keeps runs deterministic for a fixed seed.
//
// Memory model (PR 5): the steady-state event path performs zero heap
// allocations. Event states live in a slab pool (sim/event_pool.h) and
// handles are {index, generation} pairs — a stale handle held after its
// slot was recycled compares unequal and no-ops. Callbacks are stored
// inline in the state (sim/inline_callback.h). The queue is one binary
// min-heap of (when, seq, index) entries whose vector keeps its capacity;
// it holds a few dozen entries in every workload, because duty cycles and
// loops run as keyed actions outside it. Every pop compares full
// (when, seq), so stdout/--metrics=/--flight= stay byte-identical at any
// --jobs=J.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/digest.h"
#include "obs/flight/recorder.h"
#include "sim/event_pool.h"
#include "sim/inline_callback.h"
#include "sim/time.h"

namespace satin::sim {

using Callback = InlineCallback;

// Handle to a scheduled event; allows cancellation (used when the secure
// world freezes a core's normal-world events, when timers are reprogrammed,
// and when sleeping threads are woken early). Copyable; copies share the
// engine's slab pool (one shared_ptr copy, never an allocation). Once the
// event fires or its slot is recycled the handle goes stale: pending()
// is false, cancel() is a no-op, when() reads as zero.
class EventHandle {
 public:
  EventHandle() = default;

  // True while the event is scheduled and neither fired nor cancelled.
  bool pending() const;
  // Cancels the event if still pending; no-op otherwise.
  void cancel();
  // The time the event is scheduled to fire at; zero once the handle has
  // gone stale (event fired, or its slot was recycled).
  Time when() const;

 private:
  friend class Engine;
  EventHandle(std::shared_ptr<EventPool> pool, std::uint32_t index,
              std::uint32_t generation)
      : pool_(std::move(pool)), index_(index), generation_(generation) {}
  std::shared_ptr<EventPool> pool_;
  std::uint32_t index_ = 0;
  std::uint32_t generation_ = 0;
};

// Owner of keyed slots (Engine::add_keyed_slot): runs the action armed on
// one of its slots when dispatch reaches that action's key.
class KeyedActionOwner {
 public:
  virtual void run_keyed_action(std::uint32_t tag) = 0;

 protected:
  ~KeyedActionOwner() = default;
};

class Engine {
  // What an in-place run without joined slots calls for them: nothing.
  struct NoJoin {
    void operator()(std::uint32_t) const {}
  };

 public:
  // Construction installs this engine as the log-time source (the newest
  // engine wins); destruction uninstalls it if still current.
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const { return now_; }

  EventHandle schedule_at(Time when, Callback cb);
  EventHandle schedule_after(Duration delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  // Runs the single next event or keyed action, if any. Returns false when
  // there is none (after skipping cancelled entries). Manual
  // single-stepping is never interrupted: any pending stop request is
  // cleared first, exactly like run_until/run_all do on entry, so
  // request_stop() only ever affects the run_* call it was issued inside
  // of.
  bool step();

  // Runs every event with timestamp <= deadline, then advances the clock to
  // the deadline. Returns the number of events fired, keyed actions
  // included.
  std::size_t run_until(Time deadline);
  std::size_t run_for(Duration d) { return run_until(now_ + d); }

  // Drains the queue completely (use only for bounded simulations).
  std::size_t run_all();

  // Callable from inside a callback: makes the enclosing run_* return once
  // the current event finishes. A request issued outside any run is inert:
  // step/run_until/run_all all clear it on entry.
  void request_stop() { stop_requested_ = true; }
  bool stop_requested() const { return stop_requested_; }

  // --- Keyed actions (DESIGN.md §19) --------------------------------------
  // A keyed action runs at a reserved (when, seq) dispatch position with
  // no queue entry, pool state or callback. Its owner takes the seq from
  // reserve_seq() exactly where a schedule_at() would have taken one, and
  // arms one of its slots with the key. Dispatch merges armed slots into
  // the queue by full (when, seq) order, so the action runs where the
  // event it stands for would have: among queue events, other slots and
  // same-picosecond ties alike. step(), run_until's limit and
  // request_stop() treat armed actions like queue events. A disarmed key
  // can go back to the queue through schedule_keyed().
  // RichOs runs both cycle forms this way (a duty cycle's wake-ups and
  // completions, a loop's completions), and hw::GenericTimer a core's
  // non-secure tick while that tick only keeps books.
  struct Key {
    Time when;
    std::uint64_t seq = 0;
  };
  // Registers a slot whose actions call owner->run_keyed_action(tag).
  std::uint32_t add_keyed_slot(KeyedActionOwner* owner, std::uint32_t tag);
  // Consumes and returns the seq the next schedule_at() would take.
  std::uint64_t reserve_seq() { return next_seq_++; }
  // Arms an idle slot; the key must be reserved and not in the past.
  void arm(std::uint32_t slot, Key key);
  // Disarms an armed slot and returns its key.
  Key disarm(std::uint32_t slot);
  // schedule_at() under a key reserved earlier: the event takes exactly
  // the dispatch position the key names.
  EventHandle schedule_keyed(Key key, Callback cb);

  // --- In-place completions (DESIGN.md §19) -------------------------------
  // The earliest time at which anything other than the keyed action being
  // dispatched could run: the earliest live queued event (cancelled
  // entries on top of the queue are popped first, as the next dispatch
  // would pop them), the earliest other armed slot not joined to the
  // in-place run (below), and one picosecond past the run's inclusive
  // limit. It is now() inside step() and once a stop is requested.
  Time in_place_horizon();
  // Completes, without returning to the run loop, the further actions of
  // `slot` that would each end `period` after the previous one, starting
  // from now(), strictly before in_place_horizon(). Every pending key was
  // reserved before them, so on a tie that key dispatches first. The rounds
  // are additive: every one that fits completes in one batch. Before each
  // batch it asks the owner's `ready()`; then the batch's n rounds take the
  // seqs their arm() calls would have reserved, the clock moves n periods,
  // the n keyed dispatch flight commits are written (in a tight loop, only
  // while a recorder is installed), and `rounds(n)` runs once, with the
  // clock at the last one's end. The run stops when ready() is false, or
  // after a batch that requests a stop, reserves a seq, or schedules or
  // cancels an event. Returns the number completed; keyed_fired(),
  // keyed_in_place() and the enclosing run's return value count them. Only
  // the action being dispatched may call this, with its slot idle;
  // anything else throws std::logic_error.
  //
  // The slots in `joined` (other slots, armed or idle) join the run: they
  // do not bound the horizon, and whenever a joined slot's key comes
  // before the next round by (when, seq), the run completes it in place
  // first, so a batch's rounds after its first end before the next joined
  // key. The next round's seq is reserved before that, where its arm()
  // would have been, then the run disarms the slot, moves the clock to
  // its key, makes the dispatch commit and calls `join(slot)`, which does
  // that action's work and may re-arm the slot; keyed_fired() and
  // keyed_in_place() count it. A run ends only after one of `slot`'s own
  // rounds, so a joined key due before the horizon never stops it. A
  // joined action may reserve seqs but must not pull the horizon in
  // before the round it precedes; if it does, the run throws
  // std::logic_error.
  template <typename Ready, typename Rounds, typename Join = NoJoin>
  std::uint64_t complete_in_place(std::uint32_t slot, Duration period,
                                  Ready&& ready, Rounds&& rounds,
                                  std::span<const std::uint32_t> joined = {},
                                  Join&& join = {});

  // Queued events only; armed keyed actions are not counted.
  std::size_t pending_count() const { return pool_->pending(); }
  // Queue dispatches. keyed_fired() counts keyed actions run; the two
  // sum to the dispatch count of a run without keyed actions.
  std::uint64_t events_fired() const { return fired_; }
  std::uint64_t keyed_fired() const { return keyed_fired_; }
  // The keyed actions that complete_in_place() ran, a subset of
  // keyed_fired().
  std::uint64_t keyed_in_place() const { return keyed_in_place_; }

  // --- Engine self-metrics (see obs/session.h) ---------------------------
  // Deepest the event queue has ever been (including cancelled entries).
  std::size_t queue_high_water() const { return queue_high_water_; }
  // Cancelled entries removed without firing — popped and skipped, or
  // swept out by lazy compaction.
  std::uint64_t cancelled_popped() const { return cancelled_popped_; }
  // Cancelled entries currently sitting in the queue (diagnostics).
  std::size_t cancelled_pending() const { return pool_->cancelled_live(); }
  // Lazy compaction sweeps performed (diagnostics/tests).
  std::uint64_t compactions() const { return compactions_; }
  // Host wall-clock seconds spent inside run_until/run_all; with now() it
  // yields wall-time per simulated second.
  double wall_seconds() const { return wall_seconds_; }

  // --- Memory-model self-metrics (all deterministic for a fixed event
  // sequence, so they are safe to merge across --jobs workers) -----------
  // Deepest simultaneous slab-pool occupancy.
  std::size_t pool_high_water() const { return pool_->occupancy_high_water(); }
  // Slabs the pool allocated (1 == zero steady-state growth after warmup).
  std::uint64_t pool_slab_grows() const { return pool_->slab_grows(); }
  // Allocations served by recycling a previously released state.
  std::uint64_t pool_reuses() const { return pool_->reuses(); }
  // Scheduled callbacks, each stored inline in its event state.
  std::uint64_t callbacks_inline() const { return cb_inline_; }

  // Queue depth sampled at every dispatch into a mergeable log-bucket
  // digest (obs/digest.h). Owned by the engine rather than routed through
  // the metrics slot so the per-event cost is a few integer bit ops, not
  // a string-map lookup; obs/session.h folds it into the registry as
  // "engine.queue_depth". Deterministic for a fixed schedule, so trials
  // merge bit-identically at any --jobs.
  const obs::QuantileDigest& queue_depth_digest() const {
    return queue_depth_digest_;
  }

 private:
  struct QueueEntry {
    Time when;
    std::uint64_t seq;
    std::uint32_t index;  // slab-pool slot owning the callback/state
    bool operator>(const QueueEntry& o) const {
      if (when != o.when) return when > o.when;
      return seq > o.seq;
    }
  };

  struct KeyedSlot {
    KeyedActionOwner* owner = nullptr;
    std::uint32_t tag = 0;
    bool armed = false;
    bool joined = false;  // joined to the running in-place run
  };

  static constexpr std::uint32_t kNoSlot = ~0u;

  // The innermost step()/run_until()/run_all() call. A nested run saves
  // the outer one's and restores it on the way out (RunScope).
  struct Run {
    // Exclusive end for in-place completions: the inclusive limit plus
    // 1 ps, saturated; zero in step() and outside any run.
    Time end = Time::zero();
    // The slot whose keyed action is running, or kNoSlot.
    std::uint32_t dispatching = kNoSlot;
    // Completions run in place, which the run's return value counts.
    std::uint64_t in_place = 0;
  };
  class RunScope;

  [[noreturn]] static void broken_in_place_use(std::uint32_t slot,
                                               std::uint32_t dispatching,
                                               Time now);
  [[noreturn]] static void broken_joined_action(std::uint32_t slot,
                                                 Time now);
  // Marks `joined` for the length of an in-place run (also when it
  // throws).
  class JoinScope;

  EventHandle enqueue(Time when, std::uint64_t seq, Callback cb);
  bool fire_next(Time limit);
  // Pops and runs the queue top if it is due by `limit`; the top must be
  // live.
  bool fire_queued(Time limit);
  // fire_next() with at least one slot armed.
  bool fire_merged(Time limit);
  // Pops cancelled entries off the queue top until a live one is there;
  // releasing one recycles its pool slot immediately. Inline: every
  // dispatch runs it.
  void pop_cancelled() {
    while (!queue_.empty() && pool_->state(queue_.front().index).cancelled) {
      std::pop_heap(queue_.begin(), queue_.end(), std::greater<QueueEntry>());
      pool_->release(queue_.back().index);
      queue_.pop_back();
      ++cancelled_popped_;
    }
  }
  // Sweeps cancelled entries out of the queue and re-heapifies; called
  // when they outnumber the live ones (amortized O(1) per event).
  void compact();

  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_popped_ = 0;
  std::uint64_t compactions_ = 0;
  std::size_t queue_high_water_ = 0;
  double wall_seconds_ = 0.0;
  bool stop_requested_ = false;

  std::uint64_t cb_inline_ = 0;

  // Keyed slots, a handful per engine (one per core of a RichOs). The
  // armed ones sit in armed_ as (when, seq, slot), ascending, so the
  // earliest is the front; a re-armed action is usually the latest and
  // lands at the back. Capacity is reserved per slot, so arming never
  // allocates.
  std::vector<KeyedSlot> keyed_;
  std::vector<QueueEntry> armed_;
  std::uint64_t keyed_fired_ = 0;

  obs::QuantileDigest queue_depth_digest_;

  // Shared with every handle so a handle outliving the engine still finds
  // live pool state to (no-)op against.
  std::shared_ptr<EventPool> pool_ = std::make_shared<EventPool>();

  // The event queue: a (when, seq) min-heap (std::push_heap/pop_heap over
  // a vector ordered by operator>). It retains its capacity, so the
  // steady state runs allocation-free.
  std::vector<QueueEntry> queue_;

  std::uint64_t keyed_in_place_ = 0;
  Run run_;
};

class Engine::JoinScope {
 public:
  JoinScope(Engine& engine, std::uint32_t slot,
            std::span<const std::uint32_t> joined)
      : engine_(engine), joined_(joined) {
    for (const std::uint32_t j : joined_) {
      if (j == slot || j >= engine_.keyed_.size()) {
        broken_in_place_use(j, slot, engine_.now_);
      }
    }
    for (const std::uint32_t j : joined_) engine_.keyed_[j].joined = true;
  }
  ~JoinScope() {
    for (const std::uint32_t j : joined_) engine_.keyed_[j].joined = false;
  }
  JoinScope(const JoinScope&) = delete;
  JoinScope& operator=(const JoinScope&) = delete;

 private:
  Engine& engine_;
  const std::span<const std::uint32_t> joined_;
};

template <typename Ready, typename Rounds, typename Join>
std::uint64_t Engine::complete_in_place(std::uint32_t slot, Duration period,
                                        Ready&& ready, Rounds&& rounds,
                                        std::span<const std::uint32_t> joined,
                                        Join&& join) {
  if (slot != run_.dispatching || keyed_[slot].armed) {
    broken_in_place_use(slot, run_.dispatching, now_);
  }
  Time next = now_ + period;  // the end of the next round
  // Ties with another armed slot (six loops deployed at one instant), a
  // stop and the run's end rule a run out without touching the queue.
  if (period <= Duration::zero() || stop_requested_ || run_.end <= next) {
    return 0;
  }
  for (const QueueEntry& e : armed_) {
    if (e.when > next) break;
    if (std::find(joined.begin(), joined.end(), e.index) == joined.end()) {
      return 0;
    }
  }
  const JoinScope scope(*this, slot, joined);
  Time horizon = in_place_horizon();
  std::size_t allocated = pool_->allocated();
  std::size_t cancelled = pool_->cancelled_live();
  std::uint64_t done = 0;
  // The next round's seq once a joined action before it has made it
  // reserve one; otherwise it is next_seq_.
  bool reserved = false;
  std::uint64_t reserved_seq = 0;
  while (next < horizon && (reserved || ready())) {
    const QueueEntry* first_joined = nullptr;
    if (!joined.empty()) {
      for (const QueueEntry& e : armed_) {
        if (keyed_[e.index].joined) {
          first_joined = &e;
          break;
        }
      }
    }
    const std::uint64_t seq = reserved ? reserved_seq : next_seq_;
    if (first_joined != nullptr &&
        QueueEntry{next, seq, slot} > *first_joined) {
      if (!reserved) {
        reserved = true;
        reserved_seq = next_seq_++;
      }
      const QueueEntry key = *first_joined;
      armed_.erase(armed_.begin() + (first_joined - armed_.data()));
      keyed_[key.index].armed = false;
      now_ = key.when;
      ++done;
      SATIN_FLIGHT_RECORD(obs::FlightKind::kDispatch, now_, key.seq,
                          obs::kGlobalTrack, 0);
      join(key.index);
      horizon = in_place_horizon();
      if (horizon <= next) broken_joined_action(key.index, now_);
      allocated = pool_->allocated();
      cancelled = pool_->cancelled_live();
      continue;
    }
    // The rounds that end strictly before the horizon and, after the
    // first, before the next joined key. Only the first can hold a seq
    // older than that key's.
    const Time bound = first_joined != nullptr
                           ? std::min(horizon, first_joined->when)
                           : horizon;
    std::uint64_t n = 1;
    if (bound > next) {
      n = static_cast<std::uint64_t>((bound - next).ps() - 1) /
              static_cast<std::uint64_t>(period.ps()) +
          1;
    }
    if (!reserved) reserved_seq = next_seq_++;
    reserved = false;
    const std::uint64_t rest = next_seq_;  // the seqs of rounds 2..n
    if (auto* flight = obs::flight()) {
      flight->record(obs::FlightKind::kDispatch, next, reserved_seq,
                     obs::kGlobalTrack, 0);
      for (std::uint64_t i = 1; i < n; ++i) {
        flight->record(obs::FlightKind::kDispatch, next + period * i,
                       rest + i - 1, obs::kGlobalTrack, 0);
      }
    }
    now_ = next + period * (n - 1);
    next_seq_ = rest + (n - 1);
    done += n;
    rounds(n);
    // A batch that took a seq or touched the queue may have moved the
    // horizon.
    if (stop_requested_ || next_seq_ != rest + (n - 1) ||
        pool_->allocated() != allocated ||
        pool_->cancelled_live() != cancelled) {
      break;
    }
    next = now_ + period;
  }
  keyed_fired_ += done;
  keyed_in_place_ += done;
  run_.in_place += done;
  return done;
}

}  // namespace satin::sim
