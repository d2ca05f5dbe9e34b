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
 public:
  Engine() = default;
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
  void request_stop() {
    stop_requested_ = true;
    ++horizon_epoch_;
  }
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
  // "No key": what an in-place run's action returns when it leaves its
  // slot's re-arm to no one (below).
  static constexpr Time kNoKey = Time::max();
  // Registers a slot whose actions call owner->run_keyed_action(tag).
  std::uint32_t add_keyed_slot(KeyedActionOwner* owner, std::uint32_t tag);
  // Consumes and returns the seq the next schedule_at() would take.
  std::uint64_t reserve_seq() { return next_seq_++; }
  // Arms an idle slot; the key must be reserved and not in the past.
  // Inline: every keyed action re-arms its slot.
  void arm(std::uint32_t slot, Key key) {
    KeyedSlot& s = keyed_.at(slot);
    if (s.armed || key.when < now_ || key.seq >= next_seq_) {
      broken_arm(slot, s.armed, now_);
    }
    s.armed = true;
    if (s.joined) {
      run_keys_.push(key.when, key.seq, slot);
      return;
    }
    insert_armed({key.when, key.seq, slot});
    ++horizon_epoch_;
  }
  // Disarms an armed slot and returns its key.
  Key disarm(std::uint32_t slot);
  // schedule_at() under a key reserved earlier: the event takes exactly
  // the dispatch position the key names.
  EventHandle schedule_keyed(Key key, Callback cb);

  // --- In-place runs (DESIGN.md §19) ------------------------------------
  // The earliest time at which anything outside the running in-place run
  // (below) could run: the earliest live queued event (cancelled entries
  // on top of the queue are popped first, as the next dispatch would pop
  // them), the earliest armed slot that is not one of the run's
  // participants, and one picosecond past the run's inclusive limit. It
  // is now() inside step() and once a stop is requested.
  Time in_place_horizon() { return std::max(horizon_key().when, now_); }
  // Runs in place, without returning to the run loop, the keyed actions
  // that dispatch would run next for as long as each belongs to one of the
  // run's participants: `slot`, whose action is being dispatched and has
  // usually re-armed it, and the `joined` slots, armed or idle. Their keys
  // leave the armed list for the length of the run. The run takes them in
  // (when, seq) order while the earliest comes before in_place_horizon()'s
  // key, by full (when, seq) order, so a tie goes to the older seq as in
  // dispatch. For each, it disarms the slot, moves the clock to the key,
  // makes the dispatch commit (only while a recorder is installed) and
  // calls `act(s, 1)`, which does that action's work. `act` returns the
  // time of the slot's next action when the run is to re-arm the slot
  // there, with the seq the action's own arm() would have reserved last,
  // or kNoKey when the action armed the slot itself or left it idle.
  // A participant armed inside the run keeps its key in the run; one
  // disarmed leaves it. An action that schedules an event, arms a slot
  // outside the run or requests a stop makes the run re-read the horizon:
  // a key that comes first ends the run after that action, with every
  // participant armed at the key the event path would have given it. (A
  // cancel or a disarm only moves the horizon out; a run may end at a key
  // that is gone, and the next dispatch goes on from there.)
  // keyed_fired(), keyed_in_place() and the enclosing run's return value
  // count the actions run.
  //
  // `slot`'s actions may be additive rounds that each end `period` after
  // the previous one (a loop's iterations). Then, whenever `slot`'s key is
  // the earliest and `ready()` holds, one batch completes that round and
  // every further one that ends strictly before the horizon and the next
  // participant's key; those are newer than every pending key. The n
  // rounds take the seqs their arm() calls would have reserved, the clock
  // moves to the last one's end, the n commits are written in a tight
  // loop, and `act(slot, n)` runs once. A zero period makes every batch
  // one action, as for a duty cycle. Only the action being dispatched may
  // start a run, and no run, step() or in-place run may start inside one;
  // anything else throws std::logic_error.
  template <typename Ready, typename Act>
  std::uint64_t complete_in_place(std::uint32_t slot, Duration period,
                                  Ready&& ready, Act&& act,
                                  std::span<const std::uint32_t> joined = {});

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
    bool joined = false;  // a participant of the running in-place run
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
  [[noreturn]] static void broken_arm(std::uint32_t slot, bool armed,
                                      Time now);
  // Inserts into armed_ in order, usually at the back.
  void insert_armed(const QueueEntry& entry) {
    auto at = armed_.end();
    while (at != armed_.begin() && *(at - 1) > entry) --at;
    armed_.insert(at, entry);
  }
  // The keys of an in-place run's participants, ascending from head to
  // tail: the run takes the front, and a re-armed key, usually the latest,
  // lands at the back. Sized per slot with kRunSlack to spare and
  // compacted when the tail reaches the end, so nothing allocates.
  class RunKeys {
   public:
    void resize(std::size_t slots) { keys_.resize(slots + kRunSlack); }
    void clear() { head_ = tail_ = 0; }
    bool empty() const { return head_ == tail_; }
    const QueueEntry& front() const { return keys_[head_]; }
    void pop() { ++head_; }
    // Takes the fields one by one and stores them in place: a QueueEntry
    // built on the stack and copied would stall on its own stores.
    [[gnu::always_inline]] void push(Time when, std::uint64_t seq,
                                     std::uint32_t slot) {
      if (tail_ == keys_.size()) {
        std::copy(keys_.begin() + static_cast<std::ptrdiff_t>(head_),
                  keys_.begin() + static_cast<std::ptrdiff_t>(tail_),
                  keys_.begin());
        tail_ -= head_;
        head_ = 0;
      }
      std::size_t at = tail_++;
      for (; at > head_; --at) {
        const QueueEntry& prev = keys_[at - 1];
        if (prev.when < when || (prev.when == when && prev.seq < seq)) break;
        keys_[at] = prev;
      }
      QueueEntry& e = keys_[at];
      e.when = when;
      e.seq = seq;
      e.index = slot;
    }
    // Removes `slot`'s key and returns it; the slot must have one.
    QueueEntry remove(std::uint32_t slot) {
      std::size_t i = head_;
      while (keys_[i].index != slot) ++i;
      const QueueEntry key = keys_[i];
      std::copy(keys_.begin() + static_cast<std::ptrdiff_t>(i + 1),
                keys_.begin() + static_cast<std::ptrdiff_t>(tail_),
                keys_.begin() + static_cast<std::ptrdiff_t>(i));
      --tail_;
      return key;
    }
    // Calls `f` on every key left, in order, and empties.
    template <typename F>
    void drain(F&& f) {
      for (std::size_t i = head_; i < tail_; ++i) f(keys_[i]);
      clear();
    }

   private:
    std::vector<QueueEntry> keys_;
    std::size_t head_ = 0;
    std::size_t tail_ = 0;
  };
  // Holds an in-place run's participants: marks them, moves their keys
  // from armed_ into run_keys_ and, on the way out (also when an action
  // throws), merges the keys left back into armed_.
  class JoinScope;

  // The key before which the running in-place run may act: the earliest
  // live queued event, the earliest armed slot (participants' keys are
  // not in armed_ during a run) and {run end, 0}; {now, 0} once a stop is
  // requested.
  QueueEntry horizon_key() {
    const QueueEntry h = queue_horizon_key();
    return !armed_.empty() && h > armed_.front() ? armed_.front() : h;
  }
  // horizon_key() without the armed slots.
  QueueEntry queue_horizon_key() {
    pop_cancelled();
    const QueueEntry end{stop_requested_ ? now_ : run_.end, 0, kNoSlot};
    return !queue_.empty() && end > queue_.front() ? queue_.front() : end;
  }

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
  // lands at the back. During an in-place run the participants' keys sit
  // in run_keys_ instead. Capacity is reserved per slot, so arming never
  // allocates.
  static constexpr std::size_t kRunSlack = 64;
  std::vector<KeyedSlot> keyed_;
  std::vector<QueueEntry> armed_;
  RunKeys run_keys_;
  bool in_run_ = false;  // an in-place run is active
  // Bumped by whatever can pull an in-place run's horizon in: a scheduled
  // event, an arm outside the run, a stop request. A cancel or a disarm
  // only moves the horizon out, so a run may end at a key that is gone,
  // and the next dispatch goes on from there.
  std::uint64_t horizon_epoch_ = 0;
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
      : engine_(engine), slot_(slot), joined_(joined) {
    for (const std::uint32_t j : joined_) {
      if (j == slot || j >= engine_.keyed_.size()) {
        broken_in_place_use(j, slot, engine_.now_);
      }
    }
    for (const std::uint32_t j : joined_) engine_.keyed_[j].joined = true;
    engine_.keyed_[slot].joined = true;
    engine_.in_run_ = true;
    engine_.run_keys_.clear();
    std::size_t kept = 0;
    for (const QueueEntry& e : engine_.armed_) {
      if (engine_.keyed_[e.index].joined) {
        engine_.run_keys_.push(e.when, e.seq, e.index);
      } else {
        engine_.armed_[kept++] = e;
      }
    }
    engine_.armed_.erase(engine_.armed_.begin() +
                             static_cast<std::ptrdiff_t>(kept),
                         engine_.armed_.end());
  }
  ~JoinScope() {
    engine_.run_keys_.drain(
        [this](const QueueEntry& e) { engine_.insert_armed(e); });
    engine_.in_run_ = false;
    engine_.keyed_[slot_].joined = false;
    for (const std::uint32_t j : joined_) engine_.keyed_[j].joined = false;
  }
  JoinScope(const JoinScope&) = delete;
  JoinScope& operator=(const JoinScope&) = delete;

 private:
  Engine& engine_;
  const std::uint32_t slot_;
  const std::span<const std::uint32_t> joined_;
};

template <typename Ready, typename Act>
std::uint64_t Engine::complete_in_place(std::uint32_t slot, Duration period,
                                        Ready&& ready, Act&& act,
                                        std::span<const std::uint32_t> joined) {
  if (slot != run_.dispatching || in_run_) {
    broken_in_place_use(slot, run_.dispatching, now_);
  }
  // Nothing can run in place unless the earliest armed slot participates
  // and comes before the horizon: a stop, the run's end, a queued event or
  // another slot rules a run out before any key moves.
  if (armed_.empty()) return 0;
  const QueueEntry first = armed_.front();
  if (first.index != slot &&
      std::find(joined.begin(), joined.end(), first.index) == joined.end()) {
    return 0;
  }
  if (!(queue_horizon_key() > first)) return 0;
  const JoinScope scope(*this, slot, joined);
  obs::FlightRecorder* const flight = obs::flight();
  QueueEntry horizon = horizon_key();
  std::uint64_t epoch = horizon_epoch_;
  const bool batches = period > Duration::zero();
  std::uint64_t done = 0;
  while (!run_keys_.empty()) {
    if (epoch != horizon_epoch_) {
      horizon = horizon_key();
      epoch = horizon_epoch_;
    }
    // The key's fields one by one, so none of them round-trips the stack.
    const QueueEntry& front = run_keys_.front();
    const Time when = front.when;
    const std::uint64_t seq = front.seq;
    const std::uint32_t index = front.index;
    if (horizon.when < when || (horizon.when == when && horizon.seq <= seq)) {
      break;
    }
    run_keys_.pop();
    keyed_[index].armed = false;
    std::uint64_t n = 1;
    if (batches && index == slot && ready()) {
      // Rounds 2..n are newer than every pending key: each ends strictly
      // before the horizon and the next participant's key.
      Time bound = horizon.when;
      if (!run_keys_.empty()) {
        bound = std::min(bound, run_keys_.front().when);
      }
      const std::int64_t room = (bound - when).ps() - 1;
      if (room >= period.ps()) {
        n += static_cast<std::uint64_t>(room / period.ps());
      }
    }
    if (flight != nullptr) {
      flight->record(obs::FlightKind::kDispatch, when, seq, obs::kGlobalTrack,
                     0);
      // Rounds 2..n take the seqs their arm() calls would have reserved.
      for (std::uint64_t i = 1; i < n; ++i) {
        flight->record(obs::FlightKind::kDispatch, when + period * i,
                       next_seq_ + i - 1, obs::kGlobalTrack, 0);
      }
    }
    if (n == 1) {
      now_ = when;
    } else {
      now_ = when + period * (n - 1);
      next_seq_ += n - 1;
    }
    done += n;
    const Time next = act(index, n);
    if (next != kNoKey) {
      // The re-arm the action left to the run, with the seq its arm()
      // would have reserved.
      KeyedSlot& s = keyed_[index];
      if (s.armed || next < now_) broken_arm(index, s.armed, now_);
      s.armed = true;
      run_keys_.push(next, next_seq_++, index);
    }
  }
  keyed_fired_ += done;
  keyed_in_place_ += done;
  run_.in_place += done;
  return done;
}

}  // namespace satin::sim
