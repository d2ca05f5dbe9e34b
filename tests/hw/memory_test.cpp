// The TOCTTOU-exact memory model: the decisive component of the race.
#include "hw/memory.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace satin::hw {
namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<int> vals) {
  std::vector<std::uint8_t> out;
  for (int v : vals) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

TEST(Memory, StartsZeroed) {
  Memory mem(16);
  EXPECT_EQ(mem.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(mem.read(i), 0);
}

TEST(Memory, PokeAndRead) {
  Memory mem(16);
  mem.poke(4, bytes({1, 2, 3}));
  EXPECT_EQ(mem.read(4), 1);
  EXPECT_EQ(mem.read(6), 3);
  EXPECT_EQ(mem.read(3), 0);
}

TEST(Memory, OutOfRangeAccessesThrow) {
  Memory mem(8);
  EXPECT_THROW(mem.poke(7, bytes({1, 2})), std::out_of_range);
  EXPECT_THROW(mem.write(sim::Time::zero(), 8, bytes({1})),
               std::out_of_range);
  EXPECT_THROW(mem.read(8), std::out_of_range);
  EXPECT_THROW(mem.begin_scan(sim::Time::zero(), 4, 5, 1000.0),
               std::out_of_range);
}

// The write paths fail fast with the offending offset/len/size spelled
// out — both out-of-range shapes: offset beyond the end, and a length
// that runs past the end from a valid offset.
TEST(Memory, PokeOutOfRangeMessageNamesOffsetAndSize) {
  Memory mem(100);
  try {
    mem.poke(200, bytes({1}));
    FAIL() << "poke past the end did not throw";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("poke"), std::string::npos) << what;
    EXPECT_NE(what.find("200"), std::string::npos) << what;
    EXPECT_NE(what.find("100"), std::string::npos) << what;
  }
  try {
    mem.poke(96, bytes({1, 2, 3, 4, 5}));
    FAIL() << "poke running past the end did not throw";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("96"), std::string::npos) << what;
    EXPECT_NE(what.find("5"), std::string::npos) << what;
  }
}

TEST(Memory, WriteOutOfRangeMessageNamesOffsetAndSize) {
  Memory mem(100);
  mem.stamp_baseline();
  try {
    mem.write(sim::Time::zero(), 101, bytes({1}));
    FAIL() << "write past the end did not throw";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("write"), std::string::npos) << what;
    EXPECT_NE(what.find("101"), std::string::npos) << what;
  }
  try {
    mem.write(sim::Time::zero(), 99, bytes({1, 2}));
    FAIL() << "write running past the end did not throw";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("99"), std::string::npos) << what;
  }
  // Bounds math must not wrap: a huge offset with a small length is
  // rejected, not silently accepted via overflow.
  EXPECT_THROW(mem.poke(SIZE_MAX - 1, bytes({1, 2, 3})), std::out_of_range);
  EXPECT_THROW(mem.write(sim::Time::zero(), SIZE_MAX, bytes({1})),
               std::out_of_range);
  // Nothing was written and no chunk marked by any rejected call.
  EXPECT_TRUE(mem.untouched_since_baseline(0, 100));
  EXPECT_EQ(mem.write_count(), 0u);
}

TEST(Memory, BeginScanValidatesArguments) {
  Memory mem(8);
  EXPECT_THROW(mem.begin_scan(sim::Time::zero(), 0, 0, 1000.0),
               std::invalid_argument);
  EXPECT_THROW(mem.begin_scan(sim::Time::zero(), 0, 4, 0.0),
               std::invalid_argument);
}

TEST(Memory, ScanWithoutWritesSeesCurrentBytes) {
  Memory mem(8);
  mem.poke(0, bytes({9, 8, 7, 6, 5, 4, 3, 2}));
  auto token = mem.begin_scan(sim::Time::zero(), 2, 4, 1000.0);
  const auto view = mem.finish_scan(token);
  EXPECT_EQ(view, bytes({7, 6, 5, 4}));
}

TEST(Memory, WriteBeforeCursorTouchIsVisible) {
  Memory mem(8);
  // Scan starts at t=0, 1 ns per byte: byte k touched at k ns.
  auto token = mem.begin_scan(sim::Time::zero(), 0, 8, 1000.0);
  // Byte 5 is touched at 5 ns; a write at 3 ns lands first.
  mem.write(sim::Time::from_ns(3), 5, bytes({0xAA}));
  const auto view = mem.finish_scan(token);
  EXPECT_EQ(view[5], 0xAA);
}

TEST(Memory, WriteAfterCursorTouchIsInvisible) {
  Memory mem(8);
  auto token = mem.begin_scan(sim::Time::zero(), 0, 8, 1000.0);
  // Byte 2 touched at 2 ns; the write arrives at 3 ns — too late.
  mem.write(sim::Time::from_ns(3), 2, bytes({0xAA}));
  const auto view = mem.finish_scan(token);
  EXPECT_EQ(view[2], 0);
  // The real memory does hold the new value.
  EXPECT_EQ(mem.read(2), 0xAA);
}

TEST(Memory, WriteExactlyAtTouchTimeWins) {
  Memory mem(8);
  auto token = mem.begin_scan(sim::Time::zero(), 0, 8, 1000.0);
  mem.write(sim::Time::from_ns(4), 4, bytes({0x55}));
  const auto view = mem.finish_scan(token);
  EXPECT_EQ(view[4], 0x55);
}

TEST(Memory, MultiByteWriteSplitsAcrossCursor) {
  // This is Eq. 1 in miniature: the recovery restores a span while the
  // scanner is mid-pass; bytes behind the cursor stay malicious in the
  // view, bytes ahead come back clean.
  Memory mem(16);
  std::vector<std::uint8_t> mal(8, 0xFF);
  mem.poke(4, mal);
  auto token = mem.begin_scan(sim::Time::zero(), 0, 16, 1000.0);
  // Cursor reaches offset 8 at 8 ns. Restore offsets 4..11 at t=8 ns:
  // offsets 4..7 were touched at 4..7 ns (still 0xFF in the view);
  // offsets 8..11 touched at 8..11 ns (>= 8 ns: restored to 0).
  mem.write(sim::Time::from_ns(8), 4, std::vector<std::uint8_t>(8, 0x00));
  const auto view = mem.finish_scan(token);
  for (std::size_t i = 4; i < 8; ++i) EXPECT_EQ(view[i], 0xFF) << i;
  for (std::size_t i = 8; i < 12; ++i) EXPECT_EQ(view[i], 0x00) << i;
}

TEST(Memory, ScanStartedLaterUsesItsOwnClock) {
  Memory mem(8);
  auto token = mem.begin_scan(sim::Time::from_ns(100), 0, 8, 1000.0);
  // Byte 6 touched at 106 ns: write at 105 ns is visible.
  mem.write(sim::Time::from_ns(105), 6, bytes({0x11}));
  // Byte 1 touched at 101 ns: write at 103 ns is too late.
  mem.write(sim::Time::from_ns(103), 1, bytes({0x22}));
  const auto view = mem.finish_scan(token);
  EXPECT_EQ(view[6], 0x11);
  EXPECT_EQ(view[1], 0);
}

TEST(Memory, ConcurrentScansResolveIndependently) {
  Memory mem(8);
  auto fast = mem.begin_scan(sim::Time::zero(), 0, 8, 100.0);   // 0.1 ns/B
  auto slow = mem.begin_scan(sim::Time::zero(), 0, 8, 10000.0); // 10 ns/B
  // Write byte 7 at 5 ns: fast touched it at 0.7 ns (miss), slow at 70 ns
  // (sees it).
  mem.write(sim::Time::from_ns(5), 7, bytes({0x77}));
  EXPECT_EQ(mem.active_scan_count(), 2u);
  EXPECT_EQ(mem.finish_scan(fast)[7], 0);
  EXPECT_EQ(mem.finish_scan(slow)[7], 0x77);
  EXPECT_EQ(mem.active_scan_count(), 0u);
}

TEST(Memory, WriteOutsideScanRangeIgnoredByView) {
  Memory mem(16);
  auto token = mem.begin_scan(sim::Time::zero(), 4, 4, 1000.0);
  mem.write(sim::Time::zero(), 0, bytes({1, 2, 3, 4}));
  mem.write(sim::Time::zero(), 8, bytes({5}));
  const auto view = mem.finish_scan(token);
  EXPECT_EQ(view, bytes({0, 0, 0, 0}));
}

TEST(Memory, FinishUnknownTokenThrows) {
  Memory mem(8);
  auto token = mem.begin_scan(sim::Time::zero(), 0, 4, 1000.0);
  EXPECT_EQ(mem.finish_scan(token).size(), 4u);
  EXPECT_THROW(mem.finish_scan(token), std::logic_error);
}

TEST(Memory, CancelScanDropsIt) {
  Memory mem(8);
  auto token = mem.begin_scan(sim::Time::zero(), 0, 4, 1000.0);
  mem.cancel_scan(token);
  EXPECT_EQ(mem.active_scan_count(), 0u);
  EXPECT_THROW(mem.cancel_scan(token), std::logic_error);
}

TEST(Memory, WriteCountTracksTimedWritesOnly) {
  Memory mem(8);
  mem.poke(0, bytes({1}));
  EXPECT_EQ(mem.write_count(), 0u);
  mem.write(sim::Time::zero(), 0, bytes({2}));
  mem.write(sim::Time::zero(), 1, bytes({3}));
  EXPECT_EQ(mem.write_count(), 2u);
}

// Copy-on-first-overlap: a scan nothing raced must read physical memory
// directly (no private copy), and the zero-copy and materialized paths
// must return identical bytes for the same history.
TEST(Memory, UnracedScanIsZeroCopy) {
  Memory mem(16);
  mem.poke(0, bytes({9, 8, 7, 6, 5, 4, 3, 2}));
  auto token = mem.begin_scan(sim::Time::zero(), 2, 4, 1000.0);
  const auto view = mem.finish_scan(token);
  EXPECT_FALSE(view.owned());
  EXPECT_EQ(view, bytes({7, 6, 5, 4}));
}

TEST(Memory, OverlappingWriteMaterializesTheView) {
  Memory mem(16);
  auto token = mem.begin_scan(sim::Time::zero(), 0, 8, 1000.0);
  mem.write(sim::Time::from_ns(100), 2, bytes({0xAA}));  // after the cursor
  const auto view = mem.finish_scan(token);
  EXPECT_TRUE(view.owned());
  // The view holds the pre-write byte even though memory moved on.
  EXPECT_EQ(view[2], 0);
  EXPECT_EQ(mem.read(2), 0xAA);
}

TEST(Memory, NonOverlappingWriteKeepsTheScanZeroCopy) {
  Memory mem(16);
  auto token = mem.begin_scan(sim::Time::zero(), 0, 4, 1000.0);
  mem.write(sim::Time::zero(), 8, bytes({1, 2, 3}));  // outside the window
  const auto view = mem.finish_scan(token);
  EXPECT_FALSE(view.owned());
  EXPECT_EQ(view, bytes({0, 0, 0, 0}));
}

TEST(Memory, PokeDuringScanPreservesTheSnapshot) {
  Memory mem(16);
  mem.poke(0, bytes({1, 2, 3, 4}));
  auto token = mem.begin_scan(sim::Time::zero(), 0, 4, 1000.0);
  // An untimed poke is invisible to in-flight scans: the view keeps the
  // bytes as they were at materialization time.
  mem.poke(1, bytes({0xEE, 0xEE}));
  const auto view = mem.finish_scan(token);
  EXPECT_TRUE(view.owned());
  EXPECT_EQ(view, bytes({1, 2, 3, 4}));
  EXPECT_EQ(mem.read(1), 0xEE);
}

TEST(Memory, ZeroCopyAndMaterializedViewsAgreeByteForByte) {
  // Same poke history, two scans: one raced by a no-op write (same value
  // rewritten — still a race, still materializes), one untouched. Their
  // observed bytes must be identical.
  Memory raced(32), quiet(32);
  for (std::size_t i = 0; i < 32; ++i) {
    const auto v = static_cast<std::uint8_t>(i * 7 + 3);
    raced.poke(i, {&v, 1});
    quiet.poke(i, {&v, 1});
  }
  auto t_raced = raced.begin_scan(sim::Time::zero(), 0, 32, 1000.0);
  auto t_quiet = quiet.begin_scan(sim::Time::zero(), 0, 32, 1000.0);
  const std::uint8_t same = static_cast<std::uint8_t>(5 * 7 + 3);
  raced.write(sim::Time::from_ns(1), 5, {&same, 1});
  const auto view_raced = raced.finish_scan(t_raced);
  const auto view_quiet = quiet.finish_scan(t_quiet);
  EXPECT_TRUE(view_raced.owned());
  EXPECT_FALSE(view_quiet.owned());
  EXPECT_EQ(view_raced.to_vector(), view_quiet.to_vector());
}

TEST(Memory, ScanViewCopyReanchorsOwnedStorage) {
  Memory mem(8);
  auto token = mem.begin_scan(sim::Time::zero(), 0, 4, 1000.0);
  mem.write(sim::Time::from_ns(100), 1, bytes({0x99}));
  const auto view = mem.finish_scan(token);
  ASSERT_TRUE(view.owned());
  // Copy, then mutate the original's source of truth: the copy must keep
  // its own bytes (span re-anchored onto the copied storage).
  Memory::ScanView copy = view;
  EXPECT_EQ(copy.to_vector(), view.to_vector());
  // The copy's span points into its own storage, not the original's.
  EXPECT_NE(copy.bytes().data(), view.bytes().data());
  Memory::ScanView assigned;
  assigned = view;
  EXPECT_EQ(assigned.to_vector(), view.to_vector());
  // Moved-from-safe: moving keeps the bytes readable at the destination.
  Memory::ScanView moved = std::move(copy);
  EXPECT_EQ(moved.to_vector(), view.to_vector());
}

TEST(Memory, ZeroCopyViewTracksSubsequentMutation) {
  // The zero-copy window is documented as valid only until the next
  // mutation — and it reads through to physical memory: hash-before-
  // mutate is the caller's contract (introspect.cpp hashes immediately).
  Memory mem(8);
  mem.poke(0, bytes({1, 2, 3, 4}));
  auto token = mem.begin_scan(sim::Time::zero(), 0, 4, 1000.0);
  const auto view = mem.finish_scan(token);
  EXPECT_FALSE(view.owned());
  EXPECT_EQ(view[0], 1);
  mem.poke(0, bytes({0xFF}));
  EXPECT_EQ(view[0], 0xFF);  // window, not snapshot
}

// --- Dirty tracking since the boot baseline ----------------------------

TEST(Memory, NothingIsUntouchedBeforeTheBaseline) {
  Memory mem(1000);  // 4 chunks: 256+256+256+232
  EXPECT_FALSE(mem.untouched_since_baseline(0, 1000));
  EXPECT_FALSE(mem.untouched_since_baseline(300, 10));
  EXPECT_FALSE(mem.untouched_since_baseline(0, 0));
  mem.stamp_baseline();
  EXPECT_TRUE(mem.untouched_since_baseline(0, 1000));
  EXPECT_TRUE(mem.untouched_since_baseline(300, 10));
  EXPECT_TRUE(mem.untouched_since_baseline(999, 1));
  EXPECT_THROW((void)mem.untouched_since_baseline(999, 2), std::out_of_range);
}

// Which of the first `chunks` chunks are still untouched.
std::vector<bool> untouched_chunks(const Memory& mem, std::size_t chunks) {
  std::vector<bool> out;
  for (std::size_t c = 0; c < chunks; ++c) {
    out.push_back(mem.untouched_since_baseline(c * Memory::kChunkBytes,
                                               Memory::kChunkBytes));
  }
  return out;
}

TEST(Memory, PokeBumpsOnlyTouchedChunks) {
  Memory mem(1024);  // chunks 0..3
  mem.poke(0, bytes({0x11}));  // before the baseline: cleared by it
  mem.stamp_baseline();
  mem.poke(300, bytes({0xAA}));  // chunk 1
  EXPECT_EQ(untouched_chunks(mem, 4),
            (std::vector<bool>{true, false, true, true}));
  // A range is untouched only when every chunk it overlaps is.
  EXPECT_TRUE(mem.untouched_since_baseline(0, 256));
  EXPECT_FALSE(mem.untouched_since_baseline(255, 2));
  EXPECT_FALSE(mem.untouched_since_baseline(300, 1));
  EXPECT_TRUE(mem.untouched_since_baseline(512, 512));
  EXPECT_FALSE(mem.untouched_since_baseline(0, 1024));
  // A new baseline clears the mark.
  mem.stamp_baseline();
  EXPECT_TRUE(mem.untouched_since_baseline(0, 1024));
}

TEST(Memory, BaselineQueryMatchesAPerChunkReferenceOverRandomMarks) {
  // 300 chunks, the last one short: word boundaries fall at chunks 64,
  // 128, 192 and 256, and the last word is partial. Random pokes mark
  // chunks; every query must agree with a test over each chunk it
  // overlaps, the first and last chunks and whole-memory ranges included.
  const std::size_t size = 299 * Memory::kChunkBytes + 100;
  const std::size_t chunks = 300;
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  const auto next = [&state](std::size_t bound) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<std::size_t>(state % bound);
  };
  for (int round = 0; round < 40; ++round) {
    Memory mem(size);
    mem.stamp_baseline();
    std::vector<bool> marked(chunks, false);
    const int pokes = round % 8;  // from none to a handful
    for (int i = 0; i < pokes; ++i) {
      const std::size_t offset = next(size);
      const std::size_t length =
          1 + next(std::min<std::size_t>(size - offset,
                                         70 * Memory::kChunkBytes));
      mem.poke(offset, std::vector<std::uint8_t>(length, 0x5A));
      for (std::size_t c = offset / Memory::kChunkBytes;
           c <= (offset + length - 1) / Memory::kChunkBytes; ++c) {
        marked[c] = true;
      }
    }
    const auto reference = [&](std::size_t offset, std::size_t length) {
      if (length == 0) return true;
      for (std::size_t c = offset / Memory::kChunkBytes;
           c <= (offset + length - 1) / Memory::kChunkBytes; ++c) {
        if (marked[c]) return false;
      }
      return true;
    };
    std::vector<std::pair<std::size_t, std::size_t>> queries = {
        {0, size}, {0, 1}, {size - 1, 1}, {0, 0}, {size, 0},
        {63 * Memory::kChunkBytes, 2 * Memory::kChunkBytes},
        {299 * Memory::kChunkBytes, 100}};
    for (int q = 0; q < 200; ++q) {
      const std::size_t offset = next(size + 1);
      queries.emplace_back(offset, next(size - offset + 1));
    }
    for (const auto& [offset, length] : queries) {
      EXPECT_EQ(mem.untouched_since_baseline(offset, length),
                reference(offset, length))
          << "round " << round << " [" << offset << ", +" << length << ")";
    }
  }
}

TEST(Memory, WriteSpanningChunkBoundaryBumpsBothChunks) {
  Memory mem(1024);
  mem.stamp_baseline();
  // 4 bytes at 254..257 straddle the chunk 0 / chunk 1 boundary.
  mem.write(sim::Time::zero(), 254, bytes({1, 2, 3, 4}));
  EXPECT_EQ(untouched_chunks(mem, 4),
            (std::vector<bool>{false, false, true, true}));
}

TEST(Memory, UntouchedRangeQueryCoversLargeSpans) {
  // One written chunk deep inside a 200-chunk memory must surface through
  // every range that overlaps it, and through none that does not.
  constexpr std::size_t kSize = 200 * Memory::kChunkBytes;
  Memory mem(kSize);
  mem.stamp_baseline();
  mem.poke(130 * Memory::kChunkBytes + 7, bytes({0xEE}));
  EXPECT_FALSE(mem.untouched_since_baseline(0, kSize));
  EXPECT_TRUE(mem.untouched_since_baseline(0, 130 * Memory::kChunkBytes));
  EXPECT_FALSE(mem.untouched_since_baseline(130 * Memory::kChunkBytes,
                                            Memory::kChunkBytes));
  EXPECT_TRUE(mem.untouched_since_baseline(131 * Memory::kChunkBytes,
                                           69 * Memory::kChunkBytes));
}

namespace {
// Flips one bit of one byte in the first scan it sees; inert after.
class FlipOneByteHooks : public FaultHooks {
 public:
  explicit FlipOneByteHooks(std::size_t pos) : pos_(pos) {}
  TimerFaultDecision on_program_secure(CoreId, sim::Time) override {
    return {};
  }
  bool drop_secure_irq(CoreId, IrqId) override { return false; }
  bool fail_secure_entry(CoreId) override { return false; }
  std::vector<BitFlip> scan_flips(sim::Time, std::size_t length) override {
    ++consulted_;
    if (!armed_ || pos_ >= length) return {};
    armed_ = false;
    return {{pos_, 0x01}};
  }
  int consulted() const { return consulted_; }

 private:
  std::size_t pos_;
  bool armed_ = true;
  int consulted_ = 0;
};
}  // namespace

TEST(Memory, FaultFlippedScanViewMarksNothing) {
  Memory mem(1024);
  mem.stamp_baseline();
  FlipOneByteHooks hooks(600);  // chunk 2
  mem.set_fault_hooks(&hooks);
  auto token = mem.begin_scan(sim::Time::zero(), 0, 1024, 1000.0);
  const auto view = mem.finish_scan(token);
  // The glitch lands on a private view, with exactly that bit flipped...
  EXPECT_TRUE(view.owned());
  std::vector<std::uint8_t> want(1024, 0x00);
  want[600] = 0x01;
  EXPECT_EQ(view, want);
  // ...while the backing bytes stay intact and unmarked: a later clean
  // scan of them may be served from the pristine image again.
  EXPECT_EQ(mem.read(600), 0x00);
  EXPECT_TRUE(mem.untouched_since_baseline(0, 1024));
}

TEST(Memory, UnchangedScanViewUnderHooksBumpsNothing) {
  Memory mem(1024);
  mem.stamp_baseline();
  FlipOneByteHooks hooks(600);
  mem.set_fault_hooks(&hooks);
  // First scan consumes the one armed flip; the second runs with hooks
  // installed but no flip: it stays a zero-copy window and marks nothing.
  mem.cancel_scan(mem.begin_scan(sim::Time::zero(), 0, 1024, 1000.0));
  auto token = mem.begin_scan(sim::Time::zero(), 0, 1024, 1000.0);
  const auto view = mem.finish_scan(token);
  EXPECT_EQ(hooks.consulted(), 2);
  EXPECT_FALSE(view.owned());
  EXPECT_EQ(view.bytes().data(), mem.bytes().data());
  EXPECT_TRUE(mem.untouched_since_baseline(0, 1024));
}

TEST(Memory, GlitchedViewStillResolvesRacingWrites) {
  // The glitch materializes the view at scan start; a write racing the
  // cursor then lands on top of the glitched bytes, and one behind the
  // cursor does not.
  Memory mem(1024);
  FlipOneByteHooks hooks(10);
  mem.set_fault_hooks(&hooks);
  auto token = mem.begin_scan(sim::Time::zero(), 0, 1024, 1000.0);
  mem.write(sim::Time::from_ps(5'000), 10, bytes({0xF0}));  // ahead
  mem.write(sim::Time::from_ps(5'000), 2, bytes({0x0F}));   // behind
  const auto view = mem.finish_scan(token);
  EXPECT_TRUE(view.owned());
  EXPECT_EQ(view[10], 0xF0);
  EXPECT_EQ(view[2], 0x00);
}

TEST(Memory, FractionalPerByteSpeed) {
  // Table I speeds are fractional in ps (e.g. 6.71e-9 s = 6710 ps); a
  // sub-ps fraction must not distort the touch ordering.
  Memory mem(1000);
  auto token = mem.begin_scan(sim::Time::zero(), 0, 1000, 6710.5);
  // Byte 500 touched at 500 * 6710.5 ps = 3,355,250 ps.
  mem.write(sim::Time::from_ps(3'355'249), 500, bytes({0xAB}));
  mem.write(sim::Time::from_ps(3'361'962), 501, bytes({0xCD}));  // late by 2ps
  const auto view = mem.finish_scan(token);
  EXPECT_EQ(view[500], 0xAB);
  EXPECT_EQ(view[501], 0x00);
}

}  // namespace
}  // namespace satin::hw
