// The digest cache: exactness against the byte reference, per-area
// generation-driven reuse, the pristine base's serve rule on a booted
// Scenario, shadow-mode identity and the bypass rule for untrusted
// (raced/faulted) views.
#include "secure/digest_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/satin.h"
#include "scenario/scenario.h"
#include "secure/hash.h"
#include "secure/pristine_base.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace satin::secure {
namespace {

constexpr HashKind kAllKinds[] = {HashKind::kDjb2, HashKind::kSdbm,
                                  HashKind::kFnv1a};

// Fills memory with a deterministic pseudo-random pattern via poke.
void scribble(hw::Memory& mem, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint8_t> data(mem.size());
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  mem.poke(0, data);
}

std::span<const std::uint8_t> window(const hw::Memory& mem, std::size_t offset,
                                     std::size_t length) {
  return mem.bytes().subspan(offset, length);
}

TEST(DigestCache, ColdRoundMissesEveryChunkAndMatchesReference) {
  for (HashKind kind : kAllKinds) {
    hw::Memory mem(1000);  // 4 chunks, ragged 232-byte tail
    scribble(mem, 42);
    DigestCache cache(kind, /*enabled=*/true);
    const auto out = cache.round_digest(mem, 0, window(mem, 0, 1000), true);
    EXPECT_FALSE(out.bypassed);
    EXPECT_EQ(out.chunk_hits, 0u);
    EXPECT_EQ(out.chunk_misses, 4u);
    EXPECT_EQ(out.bytes_hashed, 1000u);
    EXPECT_EQ(out.bytes_skipped, 0u);
    EXPECT_EQ(out.digest, hash_bytes(kind, window(mem, 0, 1000)))
        << to_string(kind);
  }
}

TEST(DigestCache, WarmCleanRoundIsAllHits) {
  hw::Memory mem(1024);
  scribble(mem, 7);
  DigestCache cache(HashKind::kFnv1a, true);
  const auto cold = cache.round_digest(mem, 0, window(mem, 0, 1024), true);
  const auto warm = cache.round_digest(mem, 0, window(mem, 0, 1024), true);
  EXPECT_EQ(warm.chunk_hits, 4u);
  EXPECT_EQ(warm.chunk_misses, 0u);
  EXPECT_EQ(warm.bytes_skipped, 1024u);
  EXPECT_EQ(warm.bytes_hashed, 0u);
  EXPECT_EQ(warm.digest, cold.digest);
  EXPECT_EQ(cache.stats().rounds, 2u);
  EXPECT_EQ(cache.stats().hits, 4u);
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(DigestCache, DirtyChunkInvalidatesItselfAndCascadesTheSuffix) {
  hw::Memory mem(1024);
  scribble(mem, 11);
  DigestCache cache(HashKind::kDjb2, true);
  (void)cache.round_digest(mem, 0, window(mem, 0, 1024), true);
  // Flip one byte in chunk 1: the area's generation moves, so the whole
  // area is hashed again — the clean chunk 0 before it as well as the
  // suffix after it — and every chunk counts as a miss.
  std::vector<std::uint8_t> flip{
      static_cast<std::uint8_t>(mem.read(300) ^ 0xFF)};
  mem.poke(300, flip);
  const auto out = cache.round_digest(mem, 0, window(mem, 0, 1024), true);
  EXPECT_EQ(out.chunk_hits, 0u);
  EXPECT_EQ(out.chunk_misses, 4u);
  EXPECT_EQ(out.bytes_hashed, 1024u);
  EXPECT_EQ(out.bytes_skipped, 0u);
  EXPECT_EQ(out.digest, hash_bytes(HashKind::kDjb2, window(mem, 0, 1024)));
  // The new digest is cached: the next round reuses it.
  const auto warm = cache.round_digest(mem, 0, window(mem, 0, 1024), true);
  EXPECT_EQ(warm.chunk_hits, 4u);
  EXPECT_EQ(warm.digest, out.digest);
}

TEST(DigestCache, RewritingIdenticalBytesRecachesOnlyThatChunk) {
  hw::Memory mem(1024);
  scribble(mem, 13);
  DigestCache cache(HashKind::kSdbm, true);
  const auto cold = cache.round_digest(mem, 0, window(mem, 0, 1024), true);
  // Rewrite chunk 1 with its own bytes: the generation moves, so the area
  // is hashed whole again, to the digest it had. The cache keys on
  // generations, never on bytes, so an identical rewrite costs the same
  // as a real one.
  std::vector<std::uint8_t> same(window(mem, 256, 256).begin(),
                                 window(mem, 256, 256).end());
  mem.poke(256, same);
  const auto out = cache.round_digest(mem, 0, window(mem, 0, 1024), true);
  EXPECT_EQ(out.chunk_hits, 0u);
  EXPECT_EQ(out.chunk_misses, 4u);
  EXPECT_EQ(out.bytes_hashed, 1024u);
  EXPECT_EQ(out.digest, cold.digest);
}

TEST(DigestCache, WritesOutsideTheAreaKeepTheFastPath) {
  hw::Memory mem(2048);
  scribble(mem, 17);
  DigestCache cache(HashKind::kFnv1a, true);
  (void)cache.round_digest(mem, 0, window(mem, 0, 512), true);
  mem.poke(1024, std::vector<std::uint8_t>{0xEE});  // outside [0, 512)
  const auto out = cache.round_digest(mem, 0, window(mem, 0, 512), true);
  // Global generation moved, but the area's range-max did not: the round
  // is served from the cached area digest without a chunk walk.
  EXPECT_EQ(out.chunk_hits, 2u);
  EXPECT_EQ(out.bytes_skipped, 512u);
  EXPECT_EQ(out.digest, hash_bytes(HashKind::kFnv1a, window(mem, 0, 512)));
}

TEST(DigestCache, SubAreaAtNonZeroOffsetHashesItsOwnWindow) {
  hw::Memory mem(2048);
  scribble(mem, 19);
  DigestCache cache(HashKind::kDjb2, true);
  const auto out = cache.round_digest(mem, 768, window(mem, 768, 600), true);
  EXPECT_EQ(out.digest, hash_bytes(HashKind::kDjb2, window(mem, 768, 600)));
  const auto warm = cache.round_digest(mem, 768, window(mem, 768, 600), true);
  EXPECT_EQ(warm.chunk_misses, 0u);
  EXPECT_EQ(warm.digest, out.digest);
  // Dirtying the window from outside the cache's view of the world (an
  // ordinary timed write) is still caught via the generations.
  mem.write(sim::Time::zero(), 800, std::vector<std::uint8_t>{0x5A});
  const auto redo = cache.round_digest(mem, 768, window(mem, 768, 600), true);
  EXPECT_GT(redo.chunk_misses, 0u);
  EXPECT_EQ(redo.digest, hash_bytes(HashKind::kDjb2, window(mem, 768, 600)));
}

TEST(DigestCache, UntrustedViewBypassesAndDoesNotPolluteTheCache) {
  hw::Memory mem(1024);
  scribble(mem, 23);
  DigestCache cache(HashKind::kFnv1a, true);
  const auto cold = cache.round_digest(mem, 0, window(mem, 0, 1024), true);
  // A materialized (raced/faulted) view with different bytes: hashed in
  // full, counted as a bypass, and the cache must not learn from it.
  std::vector<std::uint8_t> raced(window(mem, 0, 1024).begin(),
                                  window(mem, 0, 1024).end());
  raced[512] ^= 0x01;
  const auto bypass = cache.round_digest(mem, 0, raced, false);
  EXPECT_TRUE(bypass.bypassed);
  EXPECT_EQ(bypass.chunk_hits, 0u);
  EXPECT_EQ(bypass.chunk_misses, 0u);
  EXPECT_EQ(bypass.bytes_hashed, 1024u);
  EXPECT_EQ(bypass.digest, hash_bytes(HashKind::kFnv1a, raced));
  EXPECT_NE(bypass.digest, cold.digest);
  EXPECT_EQ(cache.stats().bypasses, 1u);
  // The next trusted round still serves the pristine digest from cache.
  const auto after = cache.round_digest(mem, 0, window(mem, 0, 1024), true);
  EXPECT_EQ(after.chunk_misses, 0u);
  EXPECT_EQ(after.digest, cold.digest);
}

TEST(DigestCache, ShadowModeKeepsCountersAndDigestsIdentical) {
  // Two memories with identical histories, one enabled cache, one shadow
  // (the oracle core::SatinConfig::shadow_digest_cache selects). Every
  // round outcome must agree bit for bit — the on-vs-off identity the
  // oracle sweep test enforces end to end.
  hw::Memory mem_on(1024), mem_off(1024);
  scribble(mem_on, 29);
  scribble(mem_off, 29);
  DigestCache on(HashKind::kDjb2, true);
  DigestCache off(HashKind::kDjb2, false);
  EXPECT_TRUE(on.enabled());
  EXPECT_FALSE(off.enabled());
  auto step = [&](std::size_t offset, std::size_t length, bool trusted) {
    const auto a = on.round_digest(mem_on, offset,
                                   window(mem_on, offset, length), trusted);
    const auto b = off.round_digest(mem_off, offset,
                                    window(mem_off, offset, length), trusted);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.chunk_hits, b.chunk_hits);
    EXPECT_EQ(a.chunk_misses, b.chunk_misses);
    EXPECT_EQ(a.bytes_hashed, b.bytes_hashed);
    EXPECT_EQ(a.bytes_skipped, b.bytes_skipped);
    EXPECT_EQ(a.bypassed, b.bypassed);
  };
  step(0, 1024, true);   // cold
  step(0, 1024, true);   // warm fast path
  std::vector<std::uint8_t> poke_bytes{0x77};
  mem_on.poke(600, poke_bytes);
  mem_off.poke(600, poke_bytes);
  step(0, 1024, true);   // dirty area, hashed whole
  step(0, 512, true);    // second (sub-)area, cold
  step(0, 1024, false);  // bypass
  EXPECT_EQ(on.stats().hits, off.stats().hits);
  EXPECT_EQ(on.stats().misses, off.stats().misses);
  EXPECT_EQ(on.stats().bypasses, off.stats().bypasses);
}

// A booted default Scenario with SATIN's checker on it, not started: its
// digest cache has the process's pristine base attached, and the boot has
// stamped the memory's baseline right after installing the image.
struct BootedChecker {
  scenario::Scenario system;
  core::Satin satin{system.platform(), system.kernel(), system.tsp(), {}};

  DigestCache& cache() {
    return satin.checker().introspector().digest_cache();
  }
  hw::Memory& memory() { return system.platform().memory(); }
  // A trusted scan of [offset, offset + length), as scan_async finishes
  // one that no write raced.
  DigestCache::RoundOutcome scan(std::size_t offset, std::size_t length) {
    return cache().round_digest(memory(), offset,
                                window(memory(), offset, length), true);
  }
};

constexpr std::size_t kChunk = hw::Memory::kChunkBytes;

TEST(DigestCache, UntouchedAreaIsServedFromThePristineBase) {
  BootedChecker booted;
  ASSERT_NE(booted.cache().pristine_base(), nullptr);
  const core::Area& a = booted.satin.checker().areas()[0];
  const std::uint64_t chunks = (a.size + kChunk - 1) / kChunk;
  const auto out = booted.scan(a.offset, a.size);
  EXPECT_EQ(booted.cache().base_served_chunks(), chunks);
  // Served counts as hashed.
  EXPECT_EQ(out.chunk_misses, chunks);
  EXPECT_EQ(out.bytes_hashed, a.size);
  EXPECT_EQ(out.digest, hash_bytes(booted.cache().kind(),
                                   window(booted.memory(), a.offset, a.size)));
}

TEST(DigestCache, AreaWrittenSinceBootIsHashedWhole) {
  BootedChecker booted;
  const core::Area& a = booted.satin.checker().areas()[0];
  ASSERT_GT(a.size, 2 * kChunk);
  hw::Memory& mem = booted.memory();
  const auto pristine = booted.scan(a.offset, a.size);
  const std::uint64_t served = booted.cache().base_served_chunks();
  ASSERT_GT(served, 0u);
  // Rewrite the area's second chunk with its own bytes: they are still
  // the installed bytes, but the chunk's generation has passed the
  // baseline, so the base no longer vouches for the area.
  const auto chunk = window(mem, a.offset + kChunk, kChunk);
  mem.poke(a.offset + kChunk, std::vector<std::uint8_t>(chunk.begin(),
                                                        chunk.end()));
  const auto rewritten = booted.scan(a.offset, a.size);
  EXPECT_EQ(booted.cache().base_served_chunks(), served);
  EXPECT_EQ(rewritten.chunk_misses, pristine.chunk_misses);
  EXPECT_EQ(rewritten.bytes_hashed, a.size);
  EXPECT_EQ(rewritten.digest, pristine.digest);
  // A one-byte tamper changes the digest to that of the tampered bytes.
  const std::size_t at = a.offset + a.size / 2;
  mem.poke(at, std::vector<std::uint8_t>{
                   static_cast<std::uint8_t>(mem.read(at) ^ 0x01)});
  const auto tampered = booted.scan(a.offset, a.size);
  EXPECT_EQ(booted.cache().base_served_chunks(), served);
  EXPECT_NE(tampered.digest, pristine.digest);
  EXPECT_EQ(tampered.digest,
            hash_bytes(booted.cache().kind(), window(mem, a.offset, a.size)));
}

TEST(DigestCache, PristineBaseRefusesAnAreaLeavingTheImage) {
  BootedChecker booted;
  PristineBase& base = *booted.cache().pristine_base();
  const std::size_t end = base.size();
  ASSERT_LT(end + kChunk, booted.memory().size());
  const HashKind kind = booted.cache().kind();
  EXPECT_TRUE(base.area_digest(kind, end - kChunk, kChunk).has_value());
  EXPECT_FALSE(base.area_digest(kind, end - kChunk, 2 * kChunk).has_value());
  EXPECT_FALSE(base.area_digest(kind, end + 1, 0).has_value());
  // So a scan across the image's end is hashed, although nothing was
  // written there since boot.
  const auto out = booted.scan(end - kChunk, 2 * kChunk);
  EXPECT_EQ(booted.cache().base_served_chunks(), 0u);
  EXPECT_EQ(out.bytes_hashed, 2 * kChunk);
  EXPECT_EQ(out.digest, hash_bytes(kind, window(booted.memory(), end - kChunk,
                                                2 * kChunk)));
}

// Property sweep: random pokes between rounds, every round's digest must
// equal the byte reference for all kinds. This is the cache's whole
// contract in one loop.
TEST(DigestCache, RandomizedRoundsAlwaysMatchTheByteReference) {
  for (HashKind kind : kAllKinds) {
    hw::Memory mem(3000);
    scribble(mem, 0xCAFE);
    DigestCache cache(kind, true);
    sim::Rng rng(0xBEEF);
    for (int round = 0; round < 50; ++round) {
      const int pokes = static_cast<int>(rng.uniform_int(0, 3));
      for (int p = 0; p < pokes; ++p) {
        const auto at = static_cast<std::size_t>(rng.uniform_int(0, 2999));
        std::vector<std::uint8_t> b{
            static_cast<std::uint8_t>(rng.uniform_int(0, 255))};
        mem.poke(at, b);
      }
      const auto out = cache.round_digest(mem, 0, window(mem, 0, 3000), true);
      ASSERT_EQ(out.digest, hash_bytes(kind, window(mem, 0, 3000)))
          << to_string(kind) << " round=" << round;
    }
    EXPECT_GT(cache.stats().hits, 0u);
  }
}

}  // namespace
}  // namespace satin::secure
