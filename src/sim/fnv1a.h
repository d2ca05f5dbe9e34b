// Byte-wise 64-bit FNV-1a: the hash behind Rng::fork's substream names,
// TrialSeedSeq's trial seeds, the campaign journal's record checksums and
// CampaignSpec::content_hash. Each of those values is on disk or in a
// recorded output, so the function must never change. The model's own
// digests (secure/hash.h) and the flight chain's word-wise fold are
// separate functions.
#pragma once

#include <cstddef>
#include <cstdint>

namespace satin::sim {

inline constexpr std::uint64_t kFnv1aOffsetBasis = 14695981039346656037ull;

// Folds `len` bytes into `h`; pass an earlier result to continue a fold.
inline std::uint64_t fnv1a(const void* data, std::size_t len,
                           std::uint64_t h = kFnv1aOffsetBasis) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace satin::sim
