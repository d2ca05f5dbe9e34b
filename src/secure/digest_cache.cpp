#include "secure/digest_cache.h"

#include <optional>

#include "secure/pristine_base.h"

namespace satin::secure {

void DigestCache::account(const RoundOutcome& out) {
  ++stats_.rounds;
  stats_.hits += out.chunk_hits;
  stats_.misses += out.chunk_misses;
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

  const auto [it, first_scan] = areas_.try_emplace({offset, view.size()});
  AreaCache& area = it->second;
  const std::uint64_t chunks =
      (view.size() + hw::Memory::kChunkBytes - 1) / hw::Memory::kChunkBytes;
  const std::uint64_t global_gen = mem.write_generation();
  // O(1) all-clean fast path: if nothing anywhere mutated since the last
  // pass (global counter unchanged), or nothing inside this area did
  // (range max unchanged), the cached area digest is the digest.
  const std::uint64_t area_gen = !first_scan && global_gen == area.global_gen
                                     ? area.area_gen
                                     : mem.generation(offset, view.size());
  area.global_gen = global_gen;
  if (!first_scan && area_gen == area.area_gen) {
    out.chunk_hits = chunks;
    out.bytes_skipped = view.size();
    out.digest = enabled_ ? area.digest : hash_bytes(kind_, view);
    account(out);
    return out;
  }

  // Pristine base: install stamps every chunk of the image with one
  // generation, and the baseline is stamped right after it, so an area
  // whose maximum generation is nonzero and not past the baseline still
  // holds exactly the installed bytes, and the base's digest of them is
  // the digest. The round counts as hashed either way.
  out.chunk_misses = chunks;
  out.bytes_hashed = view.size();
  std::optional<std::uint64_t> served;
  if (base_ != nullptr && area_gen > 0 &&
      area_gen <= mem.baseline_generation()) {
    served = base_->area_digest(kind_, offset, view.size());
  }
  if (served) base_served_ += chunks;
  area.area_gen = area_gen;
  area.digest = served ? *served : hash_bytes(kind_, view);
  // Shadow mode (enabled_ false): identical bookkeeping above, but the
  // digest handed out is an independent full re-hash of the view — the
  // exact pre-cache computation. The differential tests pin the cached
  // digest == the re-hash, so enabled runs are bit-identical.
  out.digest = enabled_ ? area.digest : hash_bytes(kind_, view);
  account(out);
  return out;
}

}  // namespace satin::secure
