// Shared pristine-image digest chains.
//
// Every trial's first introspection rounds hash the same bytes: the
// freshly installed kernel image, chunk by chunk, under the same hash
// kind. Every trial boots the one process-wide default image
// (os::default_kernel_image, DESIGN.md §20), so the streaming per-chunk
// hash states — state entering each 256-byte chunk and state after
// absorbing it — are also identical across trials and are computed once
// per process.
//
// A PristineBase owns (via an aliasing shared_ptr) a view of the pristine
// image bytes and lazily memoizes, per (hash kind, area, chunk size), the
// exact chain the DigestCache's chunk walk would produce over those
// bytes. The DigestCache consults it ONLY for chunks that provably still
// hold the installed bytes: trusted (zero-copy) view, chunk generation
// unchanged since hw::Memory::stamp_baseline() at boot, and the incoming
// hash state equal to the chain's — in which case serving state_out is
// bit-for-bit the hash_resume result, and the round's counters, cache
// entries and digest are untouched by construction. Anything dirtied,
// raced or faulted falls back to real hashing.
//
// Thread-safe: trials on several threads share one base. A chain, once
// published, is immutable and never moves.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <tuple>
#include <vector>

#include "secure/hash.h"

namespace satin::secure {

class PristineBase {
 public:
  // `owner` keeps the byte storage alive (typically the shared kernel
  // image); `bytes` is the pristine content installed at physical
  // offset 0.
  PristineBase(std::shared_ptr<const void> owner,
               std::span<const std::uint8_t> bytes)
      : owner_(std::move(owner)), bytes_(bytes) {}

  std::size_t size() const { return bytes_.size(); }

  // The streaming-hash chain over one area of the pristine bytes:
  // state_in[k] enters chunk k, state_out[k] leaves it, digest is the
  // final state (== hash_bytes over the whole area). Computed on first
  // request, shared afterwards. Returns nullptr when the area is not
  // fully inside the pristine bytes.
  struct AreaChain {
    std::vector<std::uint64_t> state_in;
    std::vector<std::uint64_t> state_out;
    std::uint64_t digest = 0;
  };
  const AreaChain* area_chain(HashKind kind, std::size_t offset,
                              std::size_t length, std::size_t chunk_bytes);

  // Chains memoized so far (diagnostic: a steady-state boot adds 0).
  std::uint64_t chains_built() const;

 private:
  using Key = std::tuple<int, std::size_t, std::size_t, std::size_t>;

  std::shared_ptr<const void> owner_;
  std::span<const std::uint8_t> bytes_;
  mutable std::mutex mutex_;  // guards chains_
  std::map<Key, AreaChain> chains_;
};

}  // namespace satin::secure
