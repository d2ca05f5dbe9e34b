#include "sim/event_pool.h"

namespace satin::sim {

void EventPool::grow() {
  const std::uint32_t base = static_cast<std::uint32_t>(capacity());
  slabs_.push_back(std::make_unique<State[]>(kSlabSlots));
  ++slab_grows_;
  // Thread the fresh slab onto the free list back to front so allocation
  // order walks it forward (index locality for the first fill).
  for (std::size_t i = kSlabSlots; i-- > 0;) {
    State& s = slabs_.back()[i];
    s.next_free = free_head_;
    free_head_ = base + static_cast<std::uint32_t>(i);
  }
}

std::uint32_t EventPool::allocate() {
  if (free_head_ == kInvalidIndex) grow();
  const std::uint32_t index = free_head_;
  State& s = state(index);
  free_head_ = s.next_free;
  s.next_free = kInvalidIndex;
  // First-fill pops walk a fresh slab (generation 0); anything after the
  // slot's first release is a recycle.
  if (s.generation > 0) ++reuses_;
  s.cancelled = false;
  s.queued = false;
  ++allocated_;
  if (allocated_ > occupancy_high_water_) occupancy_high_water_ = allocated_;
  return index;
}

void EventPool::release(std::uint32_t index) {
  State& s = state(index);
  s.callback.reset();
  if (s.cancelled) {
    --cancelled_live_;
    s.cancelled = false;
  }
  s.queued = false;
  ++s.generation;  // stales every outstanding handle to this slot
  s.next_free = free_head_;
  free_head_ = index;
  --allocated_;
}

bool EventPool::cancel(std::uint32_t index, std::uint32_t generation) {
  if (!matches(index, generation)) return false;
  State& s = state(index);
  if (s.cancelled) return false;
  s.cancelled = true;
  ++cancelled_live_;
  return true;
}

}  // namespace satin::sim
