// The digest cache: exactness against the byte reference, the one serve
// rule (a trusted view of an area untouched since the boot baseline takes
// the pristine base's digest) on a booted Scenario, the counters of the
// served, hashed and bypass cases, shadow-mode identity and the bypass
// rule for untrusted (raced/glitched) views.
#include "secure/digest_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
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
constexpr std::size_t kChunk = hw::Memory::kChunkBytes;

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

std::uint64_t chunks_of(std::size_t length) {
  return (length + kChunk - 1) / kChunk;
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

TEST(DigestCache, SubAreaAtNonZeroOffsetHashesItsOwnWindow) {
  // No pristine base: every trusted round is hashed, over its own window.
  hw::Memory mem(2048);
  scribble(mem, 19);
  mem.stamp_baseline();
  DigestCache cache(HashKind::kDjb2, true);
  const auto out = cache.round_digest(mem, 768, window(mem, 768, 600), true);
  EXPECT_EQ(out.digest, hash_bytes(HashKind::kDjb2, window(mem, 768, 600)));
  EXPECT_EQ(out.chunk_misses, chunks_of(600));  // counted by length
  const auto again = cache.round_digest(mem, 768, window(mem, 768, 600), true);
  EXPECT_EQ(again.chunk_hits, 0u);
  EXPECT_EQ(again.bytes_hashed, 600u);
  EXPECT_EQ(again.digest, out.digest);
  mem.write(sim::Time::zero(), 800, std::vector<std::uint8_t>{0x5A});
  const auto redo = cache.round_digest(mem, 768, window(mem, 768, 600), true);
  EXPECT_EQ(redo.digest, hash_bytes(HashKind::kDjb2, window(mem, 768, 600)));
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
  const core::Area& area(std::size_t i) {
    return satin.checker().areas().at(i);
  }
  // A scan of [offset, offset + length), as scan_async finishes one:
  // trusted when no write raced it and no glitch flipped it.
  DigestCache::RoundOutcome scan(std::size_t offset, std::size_t length,
                                 bool trusted = true) {
    return cache().round_digest(memory(), offset,
                                window(memory(), offset, length), trusted);
  }
  // Pokes the byte at `at` with its own value XOR `mask`.
  void flip(std::size_t at, std::uint8_t mask = 0x01) {
    memory().poke(at, std::vector<std::uint8_t>{static_cast<std::uint8_t>(
                          memory().read(at) ^ mask)});
  }
};

TEST(DigestCache, ServedHashedAndBypassRoundsSetTheirCounters) {
  for (const bool enabled : {true, false}) {
    BootedChecker booted;
    booted.cache().set_enabled(enabled);
    const core::Area& a = booted.area(0);
    const std::uint64_t chunks = chunks_of(a.size);
    const HashKind kind = booted.cache().kind();

    // Served: an untouched area, from the base.
    const auto served = booted.scan(a.offset, a.size);
    EXPECT_FALSE(served.bypassed);
    EXPECT_EQ(served.chunk_hits, chunks);
    EXPECT_EQ(served.chunk_misses, 0u);
    EXPECT_EQ(served.bytes_hashed, 0u);
    EXPECT_EQ(served.bytes_skipped, a.size);
    EXPECT_EQ(served.digest,
              hash_bytes(kind, window(booted.memory(), a.offset, a.size)));

    // Hashed: the same area once one of its bytes was written.
    booted.flip(a.offset + a.size - 1);
    const auto hashed = booted.scan(a.offset, a.size);
    EXPECT_FALSE(hashed.bypassed);
    EXPECT_EQ(hashed.chunk_hits, 0u);
    EXPECT_EQ(hashed.chunk_misses, chunks);
    EXPECT_EQ(hashed.bytes_hashed, a.size);
    EXPECT_EQ(hashed.bytes_skipped, 0u);
    EXPECT_EQ(hashed.digest,
              hash_bytes(kind, window(booted.memory(), a.offset, a.size)));

    // Bypass: an untrusted view of an untouched area is hashed, not
    // served, and its chunks count neither way.
    const core::Area& b = booted.area(1);
    const auto bypass = booted.scan(b.offset, b.size, /*trusted=*/false);
    EXPECT_TRUE(bypass.bypassed);
    EXPECT_EQ(bypass.chunk_hits, 0u);
    EXPECT_EQ(bypass.chunk_misses, 0u);
    EXPECT_EQ(bypass.bytes_hashed, b.size);
    EXPECT_EQ(bypass.bytes_skipped, 0u);

    const DigestCache::Stats& stats = booted.cache().stats();
    EXPECT_EQ(stats.rounds, 3u) << enabled;
    EXPECT_EQ(stats.hits, chunks);
    EXPECT_EQ(stats.misses, chunks);
    EXPECT_EQ(stats.bypasses, 1u);
    EXPECT_EQ(stats.bytes_hashed, a.size + b.size);
    EXPECT_EQ(stats.bytes_skipped, a.size);
  }
}

TEST(DigestCache, WarmCleanRoundIsAllHits) {
  BootedChecker booted;
  const core::Area& a = booted.area(0);
  const auto cold = booted.scan(a.offset, a.size);
  const auto warm = booted.scan(a.offset, a.size);
  EXPECT_EQ(warm.chunk_hits, chunks_of(a.size));
  EXPECT_EQ(warm.chunk_misses, 0u);
  EXPECT_EQ(warm.bytes_skipped, a.size);
  EXPECT_EQ(warm.bytes_hashed, 0u);
  EXPECT_EQ(warm.digest, cold.digest);
  EXPECT_EQ(booted.cache().stats().rounds, 2u);
  EXPECT_EQ(booted.cache().stats().hits, 2 * chunks_of(a.size));
  EXPECT_EQ(booted.cache().stats().misses, 0u);
}

TEST(DigestCache, DirtyChunkInvalidatesItselfAndCascadesTheSuffix) {
  BootedChecker booted;
  const core::Area& a = booted.area(0);
  ASSERT_GT(a.size, 2 * kChunk);
  (void)booted.scan(a.offset, a.size);
  // Flip one byte in the area's second chunk: the whole area is hashed —
  // the clean chunk before it as well as the suffix after it — and every
  // chunk counts as a miss, in this round and every later one.
  booted.flip(a.offset + kChunk + 3, 0xFF);
  for (int round = 0; round < 2; ++round) {
    const auto out = booted.scan(a.offset, a.size);
    EXPECT_EQ(out.chunk_hits, 0u) << round;
    EXPECT_EQ(out.chunk_misses, chunks_of(a.size)) << round;
    EXPECT_EQ(out.bytes_hashed, a.size) << round;
    EXPECT_EQ(out.digest,
              hash_bytes(booted.cache().kind(),
                         window(booted.memory(), a.offset, a.size)))
        << round;
  }
}

TEST(DigestCache, WritesOutsideTheAreaKeepTheFastPath) {
  BootedChecker booted;
  const core::Area& a = booted.area(0);
  const core::Area& b = booted.area(1);
  const auto before = booted.scan(a.offset, a.size);
  booted.flip(b.offset + b.size / 2);  // another area's chunk
  const auto out = booted.scan(a.offset, a.size);
  EXPECT_EQ(out.chunk_hits, chunks_of(a.size));
  EXPECT_EQ(out.bytes_skipped, a.size);
  EXPECT_EQ(out.digest, before.digest);
  EXPECT_EQ(booted.scan(b.offset, b.size).chunk_hits, 0u);
}

TEST(DigestCache, UntrustedViewBypassesAndDoesNotPolluteTheCache) {
  BootedChecker booted;
  const core::Area& a = booted.area(0);
  const auto cold = booted.scan(a.offset, a.size);
  // A materialized (raced/glitched) view with different bytes: hashed,
  // counted as a bypass, and nothing is learned from it.
  const auto pristine = window(booted.memory(), a.offset, a.size);
  std::vector<std::uint8_t> raced(pristine.begin(), pristine.end());
  raced[a.size / 2] ^= 0x01;
  const auto bypass =
      booted.cache().round_digest(booted.memory(), a.offset, raced, false);
  EXPECT_TRUE(bypass.bypassed);
  EXPECT_EQ(bypass.chunk_hits, 0u);
  EXPECT_EQ(bypass.chunk_misses, 0u);
  EXPECT_EQ(bypass.bytes_hashed, a.size);
  EXPECT_EQ(bypass.digest, hash_bytes(booted.cache().kind(), raced));
  EXPECT_NE(bypass.digest, cold.digest);
  EXPECT_EQ(booted.cache().stats().bypasses, 1u);
  // The next trusted round is served the pristine digest again.
  const auto after = booted.scan(a.offset, a.size);
  EXPECT_EQ(after.chunk_misses, 0u);
  EXPECT_EQ(after.digest, cold.digest);
}

TEST(DigestCache, ShadowModeKeepsCountersAndDigestsIdentical) {
  // Two booted checkers with identical histories, one enabled cache, one
  // shadow (the oracle core::SatinConfig::shadow_digest_cache selects).
  // Every round outcome must agree bit for bit — the on-vs-off identity
  // the oracle sweep test enforces end to end.
  BootedChecker on, off;
  off.cache().set_enabled(false);
  EXPECT_TRUE(on.cache().enabled());
  EXPECT_FALSE(off.cache().enabled());
  const core::Area& a = on.area(0);
  const std::size_t end = on.cache().pristine_base()->size();
  auto step = [&](std::size_t offset, std::size_t length, bool trusted) {
    const auto x = on.scan(offset, length, trusted);
    const auto y = off.scan(offset, length, trusted);
    EXPECT_EQ(x.digest, y.digest);
    EXPECT_EQ(x.chunk_hits, y.chunk_hits);
    EXPECT_EQ(x.chunk_misses, y.chunk_misses);
    EXPECT_EQ(x.bytes_hashed, y.bytes_hashed);
    EXPECT_EQ(x.bytes_skipped, y.bytes_skipped);
    EXPECT_EQ(x.bypassed, y.bypassed);
  };
  step(a.offset, a.size, true);   // served
  step(a.offset, a.size, false);  // bypass
  on.flip(a.offset + 5);
  off.flip(a.offset + 5);
  step(a.offset, a.size, true);          // written since boot: hashed
  step(end - kChunk, 2 * kChunk, true);  // leaves the image: hashed
  EXPECT_EQ(on.cache().stats().hits, off.cache().stats().hits);
  EXPECT_EQ(on.cache().stats().misses, off.cache().stats().misses);
  EXPECT_EQ(on.cache().stats().bypasses, off.cache().stats().bypasses);
  EXPECT_EQ(on.cache().stats().bytes_hashed, off.cache().stats().bytes_hashed);
  EXPECT_EQ(on.cache().stats().bytes_skipped,
            off.cache().stats().bytes_skipped);
}

TEST(DigestCache, UntouchedAreaIsServedFromThePristineBase) {
  BootedChecker booted;
  ASSERT_NE(booted.cache().pristine_base(), nullptr);
  const core::Area& a = booted.area(0);
  const auto out = booted.scan(a.offset, a.size);
  EXPECT_EQ(out.chunk_hits, chunks_of(a.size));
  EXPECT_EQ(out.bytes_hashed, 0u);
  EXPECT_EQ(out.digest, hash_bytes(booted.cache().kind(),
                                   window(booted.memory(), a.offset, a.size)));
}

TEST(DigestCache, AreaWrittenSinceBootIsHashedWhole) {
  BootedChecker booted;
  const core::Area& a = booted.area(0);
  ASSERT_GT(a.size, 2 * kChunk);
  hw::Memory& mem = booted.memory();
  const auto pristine = booted.scan(a.offset, a.size);
  ASSERT_GT(pristine.chunk_hits, 0u);
  // Rewrite the area's second chunk with its own bytes: they are still
  // the installed bytes, but the chunk is marked written since the
  // baseline, so the base no longer vouches for the area.
  const auto chunk = window(mem, a.offset + kChunk, kChunk);
  mem.poke(a.offset + kChunk, std::vector<std::uint8_t>(chunk.begin(),
                                                        chunk.end()));
  const auto rewritten = booted.scan(a.offset, a.size);
  EXPECT_EQ(rewritten.chunk_hits, 0u);
  EXPECT_EQ(rewritten.chunk_misses, chunks_of(a.size));
  EXPECT_EQ(rewritten.bytes_hashed, a.size);
  EXPECT_EQ(rewritten.digest, pristine.digest);
  // A one-byte tamper changes the digest to that of the tampered bytes.
  booted.flip(a.offset + a.size / 2);
  const auto tampered = booted.scan(a.offset, a.size);
  EXPECT_EQ(tampered.chunk_hits, 0u);
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
  ASSERT_TRUE(booted.memory().untouched_since_baseline(end - kChunk,
                                                       2 * kChunk));
  const auto out = booted.scan(end - kChunk, 2 * kChunk);
  EXPECT_EQ(booted.cache().stats().hits, 0u);
  EXPECT_EQ(out.bytes_hashed, 2 * kChunk);
  EXPECT_EQ(out.digest, hash_bytes(kind, window(booted.memory(), end - kChunk,
                                                2 * kChunk)));
}

// Property sweep: three areas over a pristine base, random pokes between
// rounds; every round's digest must equal the byte reference for all
// kinds, whether it was served or hashed. This is the cache's whole
// contract in one loop.
TEST(DigestCache, RandomizedRoundsAlwaysMatchTheByteReference) {
  for (HashKind kind : kAllKinds) {
    hw::Memory mem(3000);
    scribble(mem, 0xCAFE);
    mem.stamp_baseline();
    const auto pristine = std::make_shared<std::vector<std::uint8_t>>(
        mem.bytes().begin(), mem.bytes().end());
    DigestCache cache(kind, true);
    cache.set_pristine_base(std::make_shared<PristineBase>(
        pristine, std::span<const std::uint8_t>(*pristine)));
    sim::Rng rng(0xBEEF);
    for (int round = 0; round < 50; ++round) {
      if (rng.uniform_int(0, 7) == 0) {
        const auto at = static_cast<std::size_t>(rng.uniform_int(0, 2999));
        std::vector<std::uint8_t> b{
            static_cast<std::uint8_t>(rng.uniform_int(0, 255))};
        mem.poke(at, b);
      }
      const auto offset = static_cast<std::size_t>(rng.uniform_int(0, 2)) * 1000;
      const auto out =
          cache.round_digest(mem, offset, window(mem, offset, 1000), true);
      ASSERT_EQ(out.digest, hash_bytes(kind, window(mem, offset, 1000)))
          << to_string(kind) << " round=" << round;
    }
    EXPECT_GT(cache.stats().hits, 0u) << to_string(kind);
    EXPECT_GT(cache.stats().misses, 0u) << to_string(kind);
  }
}

}  // namespace
}  // namespace satin::secure
