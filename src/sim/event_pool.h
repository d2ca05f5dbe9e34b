// Slab pool of event states with generation-tagged recycling.
//
// Replaces the per-event `std::make_shared<EventHandle::State>` the engine
// used to pay on every schedule: states live in fixed 256-slot slabs that
// are allocated once and recycled forever (LIFO free list, so the hot
// tick/probe traffic reuses cache-warm slots). A handle is {index,
// generation}: releasing a slot bumps its generation, so a stale handle
// held after the slot was recycled compares unequal and safely no-ops on
// cancel()/pending()/when() — the safety shared_ptr used to buy, without
// the per-event allocation and atomics.
//
// The pool also owns the cancellation tally. Handles can outlive their
// engine (the engine shares the pool with every handle it hands out via
// one shared_ptr per engine, copied — never allocated — per handle), so a
// late cancel() must find the tally alive; parking it here instead of
// on the engine makes that true by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/inline_callback.h"
#include "sim/time.h"

namespace satin::sim {

class EventPool {
 public:
  static constexpr std::uint32_t kInvalidIndex = 0xFFFF'FFFFu;
  // 256 states per slab: one slab covers the deepest queue most scenarios
  // ever reach (PR-4 high-water marks are well under 200), so steady
  // state is a single up-front allocation.
  static constexpr std::size_t kSlabShift = 8;
  static constexpr std::size_t kSlabSlots = 1u << kSlabShift;

  struct State {
    InlineCallback callback;
    Time when;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kInvalidIndex;
    // True from the engine queueing the entry until release().
    bool queued = false;
    bool cancelled = false;
  };

  EventPool() = default;
  EventPool(const EventPool&) = delete;
  EventPool& operator=(const EventPool&) = delete;

  // Pops the free list, growing a fresh slab only when it is empty. The
  // returned slot has an empty callback, cancelled=false, queued=false
  // and carries the generation the matching handle must remember.
  std::uint32_t allocate();

  // Destroys the slot's callback, bumps its generation (staling every
  // outstanding handle) and pushes it on the free list. Settles the
  // cancellation tally for a cancelled slot.
  void release(std::uint32_t index);

  State& state(std::uint32_t index) {
    return slabs_[index >> kSlabShift][index & (kSlabSlots - 1)];
  }
  const State& state(std::uint32_t index) const {
    return slabs_[index >> kSlabShift][index & (kSlabSlots - 1)];
  }

  // True while `generation` still names the slot's current occupant.
  bool matches(std::uint32_t index, std::uint32_t generation) const {
    return index < capacity() && state(index).generation == generation &&
           state(index).queued;
  }

  // Marks the slot cancelled if the handle is still current; returns
  // whether anything changed. Keeps the live/cancelled tally exact.
  bool cancel(std::uint32_t index, std::uint32_t generation);

  // Queued events that are neither fired nor cancelled.
  std::size_t pending() const { return allocated_ - cancelled_live_; }
  // Cancelled entries still sitting in the queue (the lazy-compaction
  // trigger); release() settles it as they leave.
  std::size_t cancelled_live() const { return cancelled_live_; }

  // --- Self-metrics ------------------------------------------------------
  std::size_t capacity() const { return slabs_.size() * kSlabSlots; }
  std::size_t allocated() const { return allocated_; }
  // Deepest simultaneous occupancy ever reached.
  std::size_t occupancy_high_water() const { return occupancy_high_water_; }
  // Slabs allocated (1 == the steady-state ideal after warmup).
  std::uint64_t slab_grows() const { return slab_grows_; }
  // Allocations served by recycling a previously released slot.
  std::uint64_t reuses() const { return reuses_; }

 private:
  void grow();

  std::vector<std::unique_ptr<State[]>> slabs_;
  std::uint32_t free_head_ = kInvalidIndex;
  std::size_t allocated_ = 0;
  std::size_t cancelled_live_ = 0;
  std::size_t occupancy_high_water_ = 0;
  std::uint64_t slab_grows_ = 0;
  std::uint64_t reuses_ = 0;
};

}  // namespace satin::sim
