// Zero-allocation steady state: once the pool slabs and the queue's
// storage are warm, sustained schedule/cancel/fire churn must not
// touch the global allocator at all. Global operator new/delete are
// replaced with counting shims; the measurement window runs the exact
// same traffic pattern as the warm-up, so any delta is a regression in
// the engine's retained-capacity story.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/engine.h"
#include "sim/time.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(alignment, size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace satin::sim {
namespace {

// One round = 64 µs of the simulator's typical traffic: a burst of
// near-future probes, a cancelled event, and a far-future watchdog. Every
// round fires its probes and one watchdog scheduled 100 ms earlier, so
// once the watchdog window is full the queue's population, and with it
// every retained capacity, stays flat.
void churn(Engine& engine, int rounds) {
  const Duration round = Duration::from_us(64);
  for (int r = 0; r < rounds; ++r) {
    for (int k = 0; k < 8; ++k) {
      engine.schedule_after(Duration::from_us(8 + k), [] {});
    }
    EventHandle victim = engine.schedule_after(Duration::from_us(40), [] {});
    victim.cancel();
    engine.schedule_after(Duration::from_ms(100), [] {});
    engine.run_for(round);
  }
}

TEST(EngineAllocation, SteadyStateChurnIsAllocationFree) {
  Engine engine;
  // Warm-up: long enough for the watchdog population to plateau (the
  // 100 ms window fills after ~1560 rounds).
  churn(engine, 1800);
  const std::uint64_t fired_before = engine.events_fired();
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  churn(engine, 300);
  const std::uint64_t allocs =
      g_allocations.load(std::memory_order_relaxed) - before;
  const std::uint64_t fired = engine.events_fired() - fired_before;
  EXPECT_EQ(allocs, 0u) << "steady-state churn allocated " << allocs
                        << " times over " << fired << " events";
  EXPECT_GT(fired, 2000u);  // the window really exercised the hot path
}

TEST(EngineAllocation, StaleHandleOpsDoNotAllocate) {
  Engine engine;
  EventHandle h = engine.schedule_after(Duration::from_us(1), [] {});
  engine.run_all();
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    h.cancel();
    (void)h.pending();
    (void)h.when();
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
}

}  // namespace
}  // namespace satin::sim
