// Digest cache for the secure-world introspection hot path.
//
// The paper's workloads run thousands of introspection rounds over kernel
// areas that are almost never modified between rounds: the common case is
// a clean re-hash of byte-identical text/syscall-table bytes. This cache
// decides per area, in *host* time, while leaving *simulated* time and
// every digest bit-identical to hashing the observed bytes:
//
//  * hw::Memory stamps a monotonic write-generation on every 256-byte
//    chunk a write/poke (or fault glitch) touches;
//  * an area whose generation has not moved since its last scan reuses
//    that scan's digest — O(1) when the global write-generation has not
//    moved either;
//  * any other area takes its digest from the shared pristine base when
//    it lies inside the installed image and no chunk of it was written
//    since boot (secure/pristine_base.h), and is hashed whole otherwise.
//
// TOCTTOU and fault semantics are untouched by construction: a scan that
// was raced by a timed write or glitched by a fault hook materializes a
// private view (hw::Memory copy-on-first-overlap), and any materialized
// view bypasses the cache entirely — its bytes are not the backing bytes
// the generations describe. Simulated scan time is charged in full by the
// Introspector regardless of cache hits.
//
// Counters keep per-chunk units: a reused area counts its chunks as hits,
// a served or hashed area counts them as misses and its bytes as hashed.
//
// A cache constructed with enabled = false (or switched by set_enabled,
// as core::SatinConfig::shadow_digest_cache does) runs in *shadow mode*:
// the full bookkeeping still runs — so hit/miss counters and digest_cache
// flight records stay bit-identical to the enabled run — but the returned
// digest is an independent full re-hash of the observed view, i.e.
// exactly the pre-cache behavior. Shadow mode is the oracle of the tests:
// digest_cache_test holds the two modes to identical round outcomes, and
// the oracle sweep (tests/integration/oracle_sweep_test.cpp) to identical
// journal records, metrics and flight streams.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <utility>

#include "hw/memory.h"
#include "secure/hash.h"

namespace satin::secure {

class PristineBase;

class DigestCache {
 public:
  // What one round's digest computation did. Bookkeeping is identical
  // whether the cache is enabled or shadowing, so everything here may be
  // printed/traced without breaking the on-vs-off identity contract.
  struct RoundOutcome {
    std::uint64_t digest = 0;
    std::uint64_t chunk_hits = 0;    // chunks of a reused area
    std::uint64_t chunk_misses = 0;  // chunks of a served or hashed area
    std::uint64_t bytes_hashed = 0;  // logical: what an enabled run hashes
    std::uint64_t bytes_skipped = 0;
    bool bypassed = false;  // raced/faulted view: cache not consulted
  };

  // Cumulative totals across rounds (same counting rules as RoundOutcome).
  struct Stats {
    std::uint64_t rounds = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t bypasses = 0;
    std::uint64_t bytes_hashed = 0;
    std::uint64_t bytes_skipped = 0;
  };

  explicit DigestCache(HashKind kind, bool enabled = true)
      : kind_(kind), enabled_(enabled) {}

  HashKind kind() const { return kind_; }
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Digest of `view`, the bytes a finished scan observed over
  // [offset, offset + view.size()) of `mem`. `trusted_view` must be false
  // when the scan materialized a private view (raced write or fault
  // glitch): those bytes are not the backing bytes the generations
  // describe, so the round is fully re-hashed and the cache is neither
  // consulted nor updated.
  RoundOutcome round_digest(const hw::Memory& mem, std::size_t offset,
                            std::span<const std::uint8_t> view,
                            bool trusted_view);

  const Stats& stats() const { return stats_; }

  // Attaches the process-wide pristine-image digest base (see
  // secure/pristine_base.h); IntegrityChecker does so for every checker
  // on the default kernel image, on every path. Areas that provably
  // still hold the installed image bytes take their digest from the base
  // instead of re-hashing — counters and digests are identical by
  // construction, so this is pure host-time savings and is active in both
  // enabled and shadow mode. nullptr (the default) disables it.
  void set_pristine_base(std::shared_ptr<PristineBase> base) {
    base_ = std::move(base);
  }
  const std::shared_ptr<PristineBase>& pristine_base() const { return base_; }

  // Chunks of the areas whose digest was served from the pristine base
  // (diagnostic only — deliberately outside Stats: served chunks count as
  // misses, so every printed counter is what hashing them would print).
  std::uint64_t base_served_chunks() const { return base_served_; }

 private:
  struct AreaCache {
    std::uint64_t area_gen = 0;    // generation(offset, length) last round
    std::uint64_t global_gen = 0;  // write_generation() last round
    std::uint64_t digest = 0;
  };

  void account(const RoundOutcome& out);

  HashKind kind_;
  bool enabled_;
  std::map<std::pair<std::size_t, std::size_t>, AreaCache> areas_;
  Stats stats_;
  std::shared_ptr<PristineBase> base_;
  std::uint64_t base_served_ = 0;
};

}  // namespace satin::secure
