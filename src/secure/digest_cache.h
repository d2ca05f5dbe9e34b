// Digest cache for the secure-world introspection hot path.
//
// The paper's workloads run thousands of introspection rounds over kernel
// areas that are almost never modified: the common case is a hash of
// byte-identical text/syscall-table bytes, the ones trusted boot
// installed. This cache answers such rounds in *host* time, while leaving
// *simulated* time and every digest bit-identical to hashing the observed
// bytes. One rule:
//
//  * a trusted view of an area that hw::Memory reports untouched since the
//    boot baseline (no write or poke on any of its 256-byte chunks since
//    stamp_baseline()) takes its digest from the shared pristine base
//    (secure/pristine_base.h) when the base covers the area: *served*;
//  * every other view is hashed: *hashed* when trusted, *bypass* when the
//    scan was raced by a timed write or glitched by a fault hook.
//
// TOCTTOU and fault semantics are untouched by construction: a raced or
// glitched scan materializes a private view (hw::Memory
// copy-on-first-overlap), and a materialized view is never served — its
// bytes are not the backing bytes the baseline marks describe. Simulated
// scan time is charged in full by the Introspector whatever the outcome.
//
// Counters say what the cache did: `hits` and `bytes_skipped` count the
// chunks and bytes served, `misses` the chunks of trusted areas hashed,
// and `bytes_hashed` the bytes hashed, bypasses included.
//
// A cache constructed with enabled = false (or switched by set_enabled,
// as core::SatinConfig::shadow_digest_cache does) runs in *shadow mode*:
// the full bookkeeping still runs — so counters and digest_cache flight
// records stay bit-identical to the enabled run — but the returned
// digest is an independent full re-hash of the observed view, i.e.
// exactly the pre-cache behavior. Shadow mode is the oracle of the tests:
// digest_cache_test holds the two modes to identical round outcomes, and
// the oracle sweep (tests/integration/oracle_sweep_test.cpp) to identical
// journal records, metrics and flight streams.
#pragma once

#include <cstdint>
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
    std::uint64_t chunk_hits = 0;    // chunks of a served area
    std::uint64_t chunk_misses = 0;  // chunks of a hashed trusted area
    std::uint64_t bytes_hashed = 0;  // what an enabled run hashes
    std::uint64_t bytes_skipped = 0;  // what an enabled run serves
    bool bypassed = false;  // raced/glitched view: hashed, never served
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
  // glitch): those bytes are not the backing bytes the baseline marks
  // describe, so the round is hashed and never served.
  RoundOutcome round_digest(const hw::Memory& mem, std::size_t offset,
                            std::span<const std::uint8_t> view,
                            bool trusted_view);

  const Stats& stats() const { return stats_; }

  // Attaches the process-wide pristine-image digest base (see
  // secure/pristine_base.h); IntegrityChecker does so for every checker
  // on the default kernel image, on every path. Areas that provably
  // still hold the installed image bytes take their digest from the base
  // instead of re-hashing — digests are identical by construction, so
  // this is pure host-time savings. The served/hashed decision is the
  // same in enabled and shadow mode. nullptr (the default) serves
  // nothing: every trusted round is hashed.
  void set_pristine_base(std::shared_ptr<PristineBase> base) {
    base_ = std::move(base);
  }
  const std::shared_ptr<PristineBase>& pristine_base() const { return base_; }

 private:
  HashKind kind_;
  bool enabled_;
  Stats stats_;
  std::shared_ptr<PristineBase> base_;
};

}  // namespace satin::secure
