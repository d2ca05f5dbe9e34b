#include "secure/digest_cache.h"

#include <cstdio>

#include <algorithm>
#include <stdexcept>

#include "secure/pristine_base.h"

namespace satin::secure {

DigestCache::DigestCache(HashKind kind, bool enabled, std::size_t chunk_bytes)
    : kind_(kind), enabled_(enabled), chunk_bytes_(chunk_bytes) {
  if (chunk_bytes_ == 0) {
    throw std::invalid_argument("DigestCache: zero chunk size");
  }
}

DigestCache::AreaCache& DigestCache::area_for(std::size_t offset,
                                              std::size_t length) {
  AreaCache& area = areas_[{offset, length}];
  if (area.chunks.empty() && length > 0) {
    area.chunks.resize((length + chunk_bytes_ - 1) / chunk_bytes_);
  }
  return area;
}

void DigestCache::register_area(std::size_t offset, std::size_t length) {
  area_for(offset, length);
}

void DigestCache::account(const RoundOutcome& out) {
  ++stats_.rounds;
  stats_.hits += out.chunk_hits;
  stats_.misses += out.chunk_misses;
  stats_.invalidations += out.chunk_invalidations;
  stats_.bypasses += out.bypassed ? 1 : 0;
  stats_.bytes_hashed += out.bytes_hashed;
  stats_.bytes_skipped += out.bytes_skipped;
}

DigestCache::RoundOutcome DigestCache::round_digest(
    const hw::Memory& mem, std::size_t offset,
    std::span<const std::uint8_t> view, bool trusted_view) {
  RoundOutcome out;
  if (!trusted_view) {
    // Raced or faulted scan: the observed bytes are a private view, not
    // the backing bytes the generations describe. Hash them directly and
    // leave every cache entry untouched — TOCTTOU and fault semantics see
    // the exact pre-cache pipeline.
    out.bypassed = true;
    out.bytes_hashed = view.size();
    out.digest = hash_bytes(kind_, view);
    account(out);
    return out;
  }

  AreaCache& area = area_for(offset, view.size());
  const std::uint64_t global_gen = mem.write_generation();
  const bool whole_memory_clean = area.valid && global_gen == area.global_gen;
  // O(1) all-clean fast path: if nothing anywhere mutated since the last
  // pass (global counter unchanged), or nothing inside this area did
  // (range max unchanged), the cached area digest is the digest.
  const std::uint64_t area_gen = whole_memory_clean
                                     ? area.area_gen
                                     : mem.generation(offset, view.size());
  if (area.valid && area_gen == area.area_gen) {
    out.chunk_hits = area.chunks.size();
    out.bytes_skipped = view.size();
    area.global_gen = global_gen;
    out.digest = enabled_ ? area.digest : hash_bytes(kind_, view);
    account(out);
    return out;
  }

  // Process-wide pristine base: when attached, and the backing memory has
  // a post-boot baseline stamp, chunks whose generation never moved past
  // that stamp still hold exactly the installed image bytes — their resume
  // states can be served from the shared chain instead of re-hashed. The
  // eligibility check below makes served chunks bit-identical to hashing
  // (gen unchanged since baseline + trusted zero-copy view + matching
  // incoming state), and the round accounts them as misses either way, so
  // the printed counters are those of hashing every chunk.
  const PristineBase::AreaChain* base_chain = nullptr;
  std::uint64_t baseline_gen = 0;
  if (base_ != nullptr) {
    baseline_gen = mem.baseline_generation();
    if (baseline_gen > 0) {
      base_chain = base_->area_chain(kind_, offset, view.size(), chunk_bytes_);
    }
  }

  // Chunk walk: resume the streaming hash across clean chunks, re-hash
  // dirty ones. A chunk is reusable only when its generation is unchanged
  // AND the state entering it matches the cached entry — a dirty chunk
  // shifts every downstream state, so the suffix re-hashes (and re-caches)
  // under the new prefix.
  std::uint64_t state = hash_seed(kind_);
  for (std::size_t k = 0; k < area.chunks.size(); ++k) {
    const std::size_t begin = k * chunk_bytes_;
    const std::size_t len = std::min(chunk_bytes_, view.size() - begin);
    const std::uint64_t chunk_gen = mem.generation(offset + begin, len);
    ChunkEntry& entry = area.chunks[k];
    const bool gen_ok = entry.computed && entry.gen == chunk_gen;
    if (gen_ok && entry.state_in == state) {
      ++out.chunk_hits;
      out.bytes_skipped += len;
      state = entry.state_out;
      continue;
    }
    if (entry.computed && !gen_ok) ++out.chunk_invalidations;
    ++out.chunk_misses;
    out.bytes_hashed += len;
    const std::uint64_t state_in = state;
    if (base_chain != nullptr && chunk_gen > 0 && chunk_gen <= baseline_gen &&
        base_chain->state_in[k] == state) {
      // Untouched since the boot-time install: the chunk bytes are the
      // pristine image bytes, so the shared chain's state_out IS the
      // hash_resume result.
      state = base_chain->state_out[k];
      ++base_served_;

    } else {
      state = hash_resume(kind_, state, view.subspan(begin, len));
    }
    entry = ChunkEntry{chunk_gen, state_in, state, true};
  }
  area.valid = true;
  area.area_gen = area_gen;
  area.global_gen = global_gen;
  area.digest = state;
  // Shadow mode (enabled_ false): identical bookkeeping above, but the
  // digest handed out is an independent full re-hash of the view — the
  // exact pre-cache computation. The differential tests pin state == the
  // re-hash, so enabled runs are bit-identical.
  out.digest = enabled_ ? state : hash_bytes(kind_, view);
  account(out);
  return out;
}

}  // namespace satin::secure
