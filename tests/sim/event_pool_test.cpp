// EventPool: slab growth, LIFO recycling, generation staling and the exact
// cancellation tally — the invariants the engine's handle safety and
// lazy-compaction trigger are built on.
#include "sim/event_pool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace satin::sim {
namespace {

TEST(EventPool, GrowsOneSlabLazilyAndServesLifo) {
  EventPool pool;
  EXPECT_EQ(pool.capacity(), 0u);
  const std::uint32_t a = pool.allocate();
  EXPECT_EQ(pool.capacity(), EventPool::kSlabSlots);
  EXPECT_EQ(pool.slab_grows(), 1u);
  pool.state(a).queued = true;
  pool.release(a);
  // LIFO: the slot just released is the next one handed out.
  const std::uint32_t b = pool.allocate();
  EXPECT_EQ(b, a);
  EXPECT_EQ(pool.reuses(), 1u);
  EXPECT_EQ(pool.slab_grows(), 1u);
}

TEST(EventPool, ReleaseStalesOutstandingGenerations) {
  EventPool pool;
  const std::uint32_t i = pool.allocate();
  const std::uint32_t gen = pool.state(i).generation;
  pool.state(i).queued = true;
  EXPECT_TRUE(pool.matches(i, gen));
  pool.release(i);
  EXPECT_FALSE(pool.matches(i, gen));
  // The recycled occupant carries a fresh generation; the stale one still
  // fails to match and a stale cancel() changes nothing.
  const std::uint32_t j = pool.allocate();
  ASSERT_EQ(j, i);
  pool.state(j).queued = true;
  EXPECT_FALSE(pool.matches(i, gen));
  EXPECT_FALSE(pool.cancel(i, gen));
  EXPECT_FALSE(pool.state(j).cancelled);
  EXPECT_TRUE(pool.matches(j, pool.state(j).generation));
}

TEST(EventPool, MatchesRejectsOutOfRangeAndUnqueuedSlots) {
  EventPool pool;
  EXPECT_FALSE(pool.matches(0, 0));        // nothing allocated yet
  EXPECT_FALSE(pool.matches(12345, 0));    // out of range
  const std::uint32_t i = pool.allocate();
  // The slot is not queued until the engine queues the entry: a handle
  // to a released-then-reallocated slot must not match mid-flight.
  EXPECT_FALSE(pool.matches(i, pool.state(i).generation));
}

TEST(EventPool, CancellationTalliesStayExact) {
  EventPool pool;
  std::vector<std::uint32_t> slots;
  for (int k = 0; k < 8; ++k) {
    const std::uint32_t i = pool.allocate();
    pool.state(i).queued = true;
    slots.push_back(i);
  }
  EXPECT_EQ(pool.pending(), 8u);
  EXPECT_TRUE(pool.cancel(slots[0], pool.state(slots[0]).generation));
  EXPECT_TRUE(pool.cancel(slots[1], pool.state(slots[1]).generation));
  EXPECT_EQ(pool.cancelled_live(), 2u);
  EXPECT_EQ(pool.pending(), 6u);
  // Double-cancel is a no-op, not a double-count.
  EXPECT_FALSE(pool.cancel(slots[0], pool.state(slots[0]).generation));
  EXPECT_EQ(pool.cancelled_live(), 2u);
  // Releasing the cancelled entries settles the tally; releasing a live
  // one leaves it alone.
  pool.release(slots[0]);
  pool.release(slots[1]);
  pool.release(slots[2]);
  EXPECT_EQ(pool.cancelled_live(), 0u);
  EXPECT_EQ(pool.pending(), 5u);
}

TEST(EventPool, HighWaterTracksPeakOccupancy) {
  EventPool pool;
  std::vector<std::uint32_t> slots;
  for (int k = 0; k < 300; ++k) {
    const std::uint32_t i = pool.allocate();
    pool.state(i).queued = true;
    slots.push_back(i);
  }
  EXPECT_EQ(pool.occupancy_high_water(), 300u);
  EXPECT_EQ(pool.slab_grows(), 2u);  // 300 > 256 forced a second slab
  for (const std::uint32_t i : slots) pool.release(i);
  const std::uint32_t i = pool.allocate();
  pool.state(i).queued = true;
  pool.release(i);
  // Draining and light reuse never lowers the recorded peak.
  EXPECT_EQ(pool.occupancy_high_water(), 300u);
  EXPECT_EQ(pool.slab_grows(), 2u);
}

}  // namespace
}  // namespace satin::sim
