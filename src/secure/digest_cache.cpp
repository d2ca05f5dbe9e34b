#include "secure/digest_cache.h"

#include <optional>

#include "secure/pristine_base.h"

namespace satin::secure {

DigestCache::RoundOutcome DigestCache::round_digest(
    const hw::Memory& mem, std::size_t offset,
    std::span<const std::uint8_t> view, bool trusted_view) {
  // Only a trusted view of an area no write or poke touched since the
  // boot baseline is served. A raced or glitched view is a private copy,
  // not the backing bytes the marks describe: it is hashed, so TOCTTOU
  // and fault semantics see the exact pre-cache pipeline.
  std::optional<std::uint64_t> served;
  if (trusted_view && base_ != nullptr &&
      mem.untouched_since_baseline(offset, view.size())) {
    served = base_->area_digest(kind_, offset, view.size());
  }
  RoundOutcome out;
  const std::uint64_t chunks =
      (view.size() + hw::Memory::kChunkBytes - 1) / hw::Memory::kChunkBytes;
  if (served) {
    out.chunk_hits = chunks;
    out.bytes_skipped = view.size();
  } else {
    out.chunk_misses = trusted_view ? chunks : 0;
    out.bytes_hashed = view.size();
    out.bypassed = !trusted_view;
  }
  // Shadow mode (enabled_ false): identical bookkeeping above, but the
  // digest handed out is an independent full re-hash of the view — the
  // exact pre-cache computation. The differential tests pin the served
  // digest == the re-hash, so enabled runs are bit-identical.
  out.digest = served && enabled_ ? *served : hash_bytes(kind_, view);
  ++stats_.rounds;
  stats_.hits += out.chunk_hits;
  stats_.misses += out.chunk_misses;
  stats_.bypasses += out.bypassed ? 1 : 0;
  stats_.bytes_hashed += out.bytes_hashed;
  stats_.bytes_skipped += out.bytes_skipped;
  return out;
}

}  // namespace satin::secure
