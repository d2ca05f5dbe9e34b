#include "sim/engine.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/flight/recorder.h"

namespace satin::sim {

namespace {

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

[[noreturn, gnu::cold, gnu::noinline]] void broken_keyed_use(
    const char* what, std::uint32_t slot, Time now) {
  throw std::logic_error(std::string("Engine: keyed slot ") +
                         std::to_string(slot) + " " + what + " (t=" +
                         now.to_string() + ")");
}

}  // namespace

// Enters a run: sets its in-place end and clears the dispatching slot and
// the in-place count, restoring the outer run's on the way out (also when
// a callback throws). An in-place run's participants are out of armed_,
// so no run may start inside one of its actions.
class Engine::RunScope {
 public:
  RunScope(Engine& engine, Time end) : engine_(engine), outer_(engine.run_) {
    if (engine_.in_run_) {
      throw std::logic_error("Engine: a run started inside an in-place run");
    }
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

Engine::~Engine() {
  // Release every still-queued state so callback captures die with the
  // engine. Handles that outlive the engine go stale via the generation
  // bump and keep only the pool's bookkeeping alive through their shared
  // pointer — a late cancel()/pending() no-ops instead of dangling.
  for (const QueueEntry& e : queue_) pool_->release(e.index);
}

void Engine::compact() {
  // Sweeps in place: the live entries move down, the vector keeps its
  // capacity.
  std::size_t kept = 0;
  for (const QueueEntry& e : queue_) {
    if (pool_->state(e.index).cancelled) {
      pool_->release(e.index);
      ++cancelled_popped_;
    } else {
      queue_[kept++] = e;
    }
  }
  queue_.resize(kept);
  std::make_heap(queue_.begin(), queue_.end(), std::greater<QueueEntry>());
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
  const std::uint32_t index = pool_->allocate();
  EventPool::State& s = pool_->state(index);
  s.callback = std::move(cb);
  s.when = when;
  s.queued = true;
  ++cb_inline_;
  ++horizon_epoch_;
  queue_.push_back(QueueEntry{when, seq, index});
  std::push_heap(queue_.begin(), queue_.end(), std::greater<QueueEntry>());
  // Lazy compaction: once dead entries outnumber live ones (and the queue
  // is big enough for the sweep to matter), sweep them out in one O(n)
  // pass instead of dragging them through every sift.
  if (pool_->cancelled_live() > queue_.size() / 2 && queue_.size() >= 64) {
    compact();
  }
  if (queue_.size() > queue_high_water_) queue_high_water_ = queue_.size();
  return EventHandle(pool_, index, s.generation);
}

std::uint32_t Engine::add_keyed_slot(KeyedActionOwner* owner,
                                     std::uint32_t tag) {
  keyed_.push_back(KeyedSlot{owner, tag, false});
  armed_.reserve(keyed_.size());
  run_keys_.resize(keyed_.size());
  return static_cast<std::uint32_t>(keyed_.size() - 1);
}

void Engine::broken_arm(std::uint32_t slot, bool armed, Time now) {
  broken_keyed_use(
      armed ? "armed twice" : "armed with a past or unreserved key", slot,
      now);
}

Engine::Key Engine::disarm(std::uint32_t slot) {
  KeyedSlot& s = keyed_.at(slot);
  if (!s.armed) broken_keyed_use("disarmed while idle", slot, now_);
  s.armed = false;
  if (s.joined) {
    const QueueEntry key = run_keys_.remove(slot);
    return Key{key.when, key.seq};
  }
  const auto at = std::find_if(
      armed_.begin(), armed_.end(),
      [slot](const QueueEntry& e) { return e.index == slot; });
  const Key key{at->when, at->seq};
  armed_.erase(at);
  return key;
}

bool Engine::fire_next(Time limit) {
  pop_cancelled();
  // One predictable branch when nothing is armed.
  if (!armed_.empty()) return fire_merged(limit);
  return fire_queued(limit);
}

bool Engine::fire_merged(Time limit) {
  const QueueEntry next = armed_.front();
  if (!queue_.empty() && next > queue_.front()) return fire_queued(limit);
  if (next.when > limit) return false;
  armed_.erase(armed_.begin());
  KeyedSlot& slot = keyed_[next.index];
  slot.armed = false;
  now_ = next.when;
  ++keyed_fired_;
  // The same commit the queued event would have made; the queue-depth
  // sample is queue-only.
  SATIN_FLIGHT_RECORD(obs::FlightKind::kDispatch, now_, next.seq,
                      obs::kGlobalTrack, 0);
  run_.dispatching = next.index;
  slot.owner->run_keyed_action(slot.tag);
  run_.dispatching = kNoSlot;
  return true;
}

bool Engine::fire_queued(Time limit) {
  if (queue_.empty()) return false;
  const QueueEntry top = queue_.front();
  if (top.when > limit) return false;
  std::pop_heap(queue_.begin(), queue_.end(), std::greater<QueueEntry>());
  queue_.pop_back();
  EventPool::State& s = pool_->state(top.index);
  // Move the callback out and release the slot before invoking: an event
  // that cancels or reschedules "itself" through a captured handle sees a
  // stale generation instead of a half-dead state, and the slot is free
  // for immediate reuse by whatever the callback schedules.
  Callback cb = std::move(s.callback);
  now_ = top.when;
  pool_->release(top.index);
  ++fired_;
  // Depth AFTER the pop: the population the next pop works over.
  queue_depth_digest_.observe(static_cast<double>(queue_.size()));
  // The flight record is the ground-truth commit: (when, seq) is exactly
  // the pair the queue ordered by, so two runs with identical streams
  // dispatched identical work.
  SATIN_FLIGHT_RECORD(obs::FlightKind::kDispatch, now_, top.seq,
                      obs::kGlobalTrack, 0);
  cb();
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
