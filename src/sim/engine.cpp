#include "sim/engine.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/flight/recorder.h"
#include "obs/trace.h"
#include "sim/log.h"

namespace satin::sim {

namespace {

Time engine_log_clock(const void* ctx) {
  return static_cast<const Engine*>(ctx)->now();
}

// Accumulates host wall time spent inside a run_* call onto `sink`.
class WallTimer {
 public:
  explicit WallTimer(double& sink)
      : sink_(sink), start_(std::chrono::steady_clock::now()) {}
  ~WallTimer() {
    sink_ += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start_)
                 .count();
  }

 private:
  double& sink_;
  std::chrono::steady_clock::time_point start_;
};

// Always-on wheel invariant: a nonzero wheel count with no bucket bit set
// would otherwise return a bogus bucket in an optimized build. Out of line
// and cold, off the dispatch path.
[[noreturn, gnu::cold, gnu::noinline]] void broken_wheel_invariant(
    std::size_t wheel_count, std::uint64_t cursor, Time now) {
  throw std::logic_error(
      "Engine invariant: timer wheel counts " + std::to_string(wheel_count) +
      " queued events but no bucket is marked (cursor bucket " +
      std::to_string(cursor) + ", t=" + now.to_string() + ")");
}

[[noreturn, gnu::cold, gnu::noinline]] void broken_keyed_use(
    const char* what, std::uint32_t slot, Time now) {
  throw std::logic_error(std::string("Engine: keyed slot ") +
                         std::to_string(slot) + " " + what + " (t=" +
                         now.to_string() + ")");
}

}  // namespace

// Enters a run: sets its in-place end and clears the dispatching slot and
// the in-place count, restoring the outer run's on the way out (also when
// a callback throws).
class Engine::RunScope {
 public:
  RunScope(Engine& engine, Time end) : engine_(engine), outer_(engine.run_) {
    engine_.run_ = Run{end};
  }
  ~RunScope() { engine_.run_ = outer_; }
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;
  std::uint64_t in_place() const { return engine_.run_.in_place; }

 private:
  Engine& engine_;
  const Run outer_;
};

void Engine::broken_in_place_use(std::uint32_t slot, std::uint32_t dispatching,
                                 Time now) {
  throw std::logic_error(
      "Engine: keyed slot " + std::to_string(slot) +
      " completed in place outside its own dispatch (dispatching " +
      (dispatching == kNoSlot ? std::string("no slot")
                              : "slot " + std::to_string(dispatching)) +
      ", t=" + now.to_string() + ")");
}

bool EventHandle::pending() const {
  return pool_ != nullptr && pool_->matches(index_, generation_) &&
         !pool_->state(index_).cancelled;
}

void EventHandle::cancel() {
  if (pool_ != nullptr) pool_->cancel(index_, generation_);
}

Time EventHandle::when() const {
  return pool_ != nullptr && pool_->matches(index_, generation_)
             ? pool_->state(index_).when
             : Time::zero();
}

Engine::Engine() { set_log_clock(&engine_log_clock, this); }

Engine::~Engine() {
  if (log_clock_ctx() == this) set_log_clock(nullptr, nullptr);
  // Release every still-queued state so callback captures die with the
  // engine. Handles that outlive the engine go stale via the generation
  // bump and keep only the pool's bookkeeping alive through their shared
  // pointer — a late cancel()/pending() no-ops instead of dangling.
  for (const QueueEntry& e : heap_) pool_->release(e.index);
  for (const QueueEntry& e : drain_) pool_->release(e.index);
  for (std::vector<QueueEntry>& bucket : wheel_) {
    for (const QueueEntry& e : bucket) pool_->release(e.index);
  }
}

void Engine::compact() {
  // Sweep into the retained scratch buffer (capacity survives the swap
  // round-trip, so steady-state sweeps never allocate).
  compact_scratch_.clear();
  compact_scratch_.reserve(heap_.size());
  for (const QueueEntry& e : heap_) {
    if (pool_->state(e.index).cancelled) {
      pool_->release(e.index);
      ++cancelled_popped_;
    } else {
      compact_scratch_.push_back(e);
    }
  }
  heap_.swap(compact_scratch_);
  std::make_heap(heap_.begin(), heap_.end(), std::greater<QueueEntry>());
  ++compactions_;
}

EventHandle Engine::schedule_at(Time when, Callback cb) {
  if (when < now_) {
    throw std::logic_error("Engine::schedule_at: time in the past");
  }
  return enqueue(when, next_seq_++, std::move(cb));
}

EventHandle Engine::schedule_keyed(Key key, Callback cb) {
  if (key.when < now_ || key.seq >= next_seq_) {
    throw std::logic_error(
        "Engine::schedule_keyed: key in the past or never reserved");
  }
  return enqueue(key.when, key.seq, std::move(cb));
}

EventHandle Engine::enqueue(Time when, std::uint64_t seq, Callback cb) {
  // Opportunistic cursor resync: with no bucketed entries the wheel window
  // can slide up to the clock for free, so near-future events keep landing
  // in buckets even after a long quiet jump (run_until over idle time).
  if (wheel_count_ == 0) {
    const std::uint64_t now_bucket = bucket_of(now_);
    if (now_bucket > cursor_) cursor_ = now_bucket;
  }
  const std::uint32_t index = pool_->allocate();
  EventPool::State& s = pool_->state(index);
  s.callback = std::move(cb);
  s.when = when;
  if (s.callback.heap_allocated()) {
    ++cb_fallback_;
  } else {
    ++cb_inline_;
  }
  const QueueEntry entry{when, seq, index};
  const std::uint64_t b = bucket_of(when);
  if (b < cursor_) {
    // The bucket was already loaded (a callback scheduling into the
    // currently-draining time range): join the drain heap directly.
    s.location = EventLocation::kDrain;
    drain_.push_back(entry);
    std::push_heap(drain_.begin(), drain_.end(), std::greater<QueueEntry>());
    ++wheel_scheduled_;
  } else if (b - cursor_ < kWheelBuckets) {
    s.location = EventLocation::kWheel;
    // Tighten a valid memo; a stale one stays stale (an arbitrary earlier
    // bucket may exist, only a rescan can tell).
    if (next_bucket_cache_ != kNoBucket && b < next_bucket_cache_) {
      next_bucket_cache_ = b;
    }
    wheel_[b & kWheelMask].push_back(entry);
    bitmap_set(b);
    ++wheel_count_;
    ++wheel_scheduled_;
  } else {
    s.location = EventLocation::kHeap;
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<QueueEntry>());
    ++heap_scheduled_;
  }
  // Lazy compaction: once dead entries outnumber live ones in the
  // far-future heap (and it is big enough for the sweep to matter), sweep
  // them out in one O(n) pass instead of dragging them through every
  // sift. Wheel entries are never compacted — their lifetime is bounded
  // by the ~68 ms horizon, so they drain out on their own.
  if (pool_->cancelled_in_heap() > heap_.size() / 2 && heap_.size() >= 64) {
    compact();
  }
  const std::size_t queued = heap_.size() + drain_.size() + wheel_count_;
  if (queued > queue_high_water_) queue_high_water_ = queued;
  return EventHandle(pool_, index, s.generation);
}

std::uint64_t Engine::next_nonempty_bucket() const {
  if (next_bucket_cache_ != kNoBucket) return next_bucket_cache_;
  const std::uint64_t start = cursor_ & kWheelMask;
  std::uint64_t scanned = 0;
  while (scanned < kWheelBuckets) {
    const std::uint64_t slot = (start + scanned) & kWheelMask;
    const std::uint64_t word = bitmap_[slot >> 6] >> (slot & 63);
    if (word != 0) {
      const std::uint64_t d =
          scanned + static_cast<std::uint64_t>(std::countr_zero(word));
      if (d >= kWheelBuckets) break;
      next_bucket_cache_ = cursor_ + d;
      return next_bucket_cache_;
    }
    scanned += 64 - (slot & 63);
  }
  if (wheel_count_ != 0) broken_wheel_invariant(wheel_count_, cursor_, now_);
  return cursor_;
}

void Engine::load_bucket(std::uint64_t abs) {
  std::vector<QueueEntry>& bucket = wheel_[abs & kWheelMask];
  for (const QueueEntry& e : bucket) {
    pool_->state(e.index).location = EventLocation::kDrain;
    drain_.push_back(e);
    std::push_heap(drain_.begin(), drain_.end(), std::greater<QueueEntry>());
  }
  wheel_count_ -= bucket.size();
  bucket.clear();
  bitmap_clear(abs);
  cursor_ = abs + 1;
  next_bucket_cache_ = kNoBucket;  // recomputed lazily on the next probe
}

void Engine::settle_tops(Time limit) {
  for (;;) {
    pop_cancelled_tops();
    if (wheel_count_ == 0) return;
    // Load the earliest bucket while it could still contain the next
    // event: its start must not exceed the run limit nor either live top.
    // (<=, not <: a bucket can hold an entry at exactly the top's
    // timestamp whose sequence number decides the order.)
    Time best = limit;
    if (!drain_.empty() && drain_.front().when < best) {
      best = drain_.front().when;
    }
    if (!heap_.empty() && heap_.front().when < best) best = heap_.front().when;
    const std::uint64_t b = next_nonempty_bucket();
    if (Time::from_ps(static_cast<std::int64_t>(b) << kBucketShift) > best) {
      return;
    }
    load_bucket(b);
  }
}

std::uint32_t Engine::add_keyed_slot(KeyedActionOwner* owner,
                                     std::uint32_t tag) {
  keyed_.push_back(KeyedSlot{owner, tag, false});
  armed_.reserve(keyed_.size());
  return static_cast<std::uint32_t>(keyed_.size() - 1);
}

void Engine::arm(std::uint32_t slot, Key key) {
  KeyedSlot& s = keyed_.at(slot);
  if (s.armed) broken_keyed_use("armed twice", slot, now_);
  if (key.when < now_ || key.seq >= next_seq_) {
    broken_keyed_use("armed with a past or unreserved key", slot, now_);
  }
  s.armed = true;
  const QueueEntry entry{key.when, key.seq, slot};
  auto at = armed_.end();
  while (at != armed_.begin() && *(at - 1) > entry) --at;
  armed_.insert(at, entry);
}

Engine::Key Engine::disarm(std::uint32_t slot) {
  KeyedSlot& s = keyed_.at(slot);
  if (!s.armed) broken_keyed_use("disarmed while idle", slot, now_);
  s.armed = false;
  const auto at = std::find_if(
      armed_.begin(), armed_.end(),
      [slot](const QueueEntry& e) { return e.index == slot; });
  const Key key{at->when, at->seq};
  armed_.erase(at);
  return key;
}

Time Engine::in_place_horizon() const {
  Time horizon = stop_requested_ ? now_ : run_.end;
  if (!drain_.empty()) horizon = std::min(horizon, drain_.front().when);
  if (!heap_.empty()) horizon = std::min(horizon, heap_.front().when);
  if (wheel_count_ != 0) {
    horizon = std::min(
        horizon, Time::from_ps(static_cast<std::int64_t>(
                                   next_nonempty_bucket() << kBucketShift)));
  }
  if (!armed_.empty()) horizon = std::min(horizon, armed_.front().when);
  // Every pending key is at or after now(); only a bucket start or the
  // end of a step() can fall before it.
  return std::max(horizon, now_);
}

bool Engine::fire_next(Time limit) {
  // One predictable branch when nothing is armed.
  if (!armed_.empty()) return fire_merged(limit);
  settle_tops(limit);
  return fire_queued(limit);
}

bool Engine::fire_merged(Time limit) {
  const QueueEntry next = armed_.front();
  // A bucket that starts after the armed key cannot hold an earlier
  // event, so settling stops there.
  settle_tops(std::min(limit, next.when));
  if ((!drain_.empty() && next > drain_.front()) ||
      (!heap_.empty() && next > heap_.front())) {
    return fire_queued(limit);
  }
  if (next.when > limit) return false;
  armed_.erase(armed_.begin());
  KeyedSlot& slot = keyed_[next.index];
  slot.armed = false;
  now_ = next.when;
  ++keyed_fired_;
  // The same commit the queued event would have made; the per-dispatch
  // trace span and queue-depth sample are queue-only.
  SATIN_FLIGHT_RECORD(obs::FlightKind::kDispatch, now_, next.seq,
                      obs::kGlobalTrack, 0);
  run_.dispatching = next.index;
  slot.owner->run_keyed_action(slot.tag);
  run_.dispatching = kNoSlot;
  return true;
}

bool Engine::fire_queued(Time limit) {
  const bool have_drain = !drain_.empty();
  const bool have_heap = !heap_.empty();
  if (!have_drain && !have_heap) return false;
  // Full (when, seq) comparison across the wheel/heap boundary keeps
  // equal-timestamp FIFO order identical to the single-heap engine.
  const bool from_heap =
      have_heap && (!have_drain || drain_.front() > heap_.front());
  std::vector<QueueEntry>& src = from_heap ? heap_ : drain_;
  const QueueEntry top = src.front();
  if (top.when > limit) return false;
  std::pop_heap(src.begin(), src.end(), std::greater<QueueEntry>());
  src.pop_back();
  EventPool::State& s = pool_->state(top.index);
  // Move the callback out and release the slot before invoking: an event
  // that cancels or reschedules "itself" through a captured handle sees a
  // stale generation instead of a half-dead state, and the slot is free
  // for immediate reuse by whatever the callback schedules.
  Callback cb = std::move(s.callback);
  now_ = top.when;
  pool_->release(top.index);
  ++fired_;
#if SATIN_OBS_ENABLED
  // Depth AFTER the pop: the population the next settle/pop works over.
  queue_depth_digest_.observe(
      static_cast<double>(heap_.size() + drain_.size() + wheel_count_));
#endif
  // The flight record is the ground-truth commit: (when, seq) is exactly
  // the pair the queue ordered by, so two runs with identical streams
  // dispatched identical work.
  SATIN_FLIGHT_RECORD(obs::FlightKind::kDispatch, now_, top.seq,
                      obs::kGlobalTrack, 0);
  SATIN_TRACE_BEGIN("engine", "dispatch", now_, obs::kGlobalTrack,
                    obs::kWorldNone);
  cb();
  SATIN_TRACE_END("engine", "dispatch", now_, obs::kGlobalTrack,
                  obs::kWorldNone);
  return true;
}

bool Engine::step() {
  // Same contract as run_until/run_all: a stop request only affects the
  // run it was issued inside of; entering a new (single-step) run clears
  // any stale request instead of silently carrying it forward.
  stop_requested_ = false;
  // One action per step: the in-place horizon is the clock.
  const RunScope run(*this, Time::zero());
  return fire_next(Time::max());
}

std::size_t Engine::run_until(Time deadline) {
  WallTimer wall(wall_seconds_);
  stop_requested_ = false;
  // The limit is inclusive, so an action at exactly `deadline` may
  // complete in place.
  const RunScope run(*this, deadline < Time::max()
                                ? deadline + Duration::from_ps(1)
                                : Time::max());
  std::size_t n = 0;
  while (!stop_requested_ && fire_next(deadline)) ++n;
  if (!stop_requested_ && now_ < deadline) now_ = deadline;
  return n + run.in_place();
}

std::size_t Engine::run_all() {
  WallTimer wall(wall_seconds_);
  stop_requested_ = false;
  const RunScope run(*this, Time::max());
  std::size_t n = 0;
  while (!stop_requested_ && fire_next(Time::max())) ++n;
  return n + run.in_place();
}

}  // namespace satin::sim
