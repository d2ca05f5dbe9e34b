// Shared pristine-image area digests.
//
// Every trial's first introspection round of an area hashes the same
// bytes: that area of the freshly installed kernel image, under the same
// hash kind. Every trial boots the one process-wide default image
// (os::default_kernel_image, DESIGN.md §20), so each area's digest over
// those bytes is also identical across trials and is computed once per
// process.
//
// A PristineBase owns (via an aliasing shared_ptr) a view of the pristine
// image bytes and lazily memoizes, per (hash kind, area), hash_bytes over
// that area. The DigestCache consults it ONLY for areas that provably
// still hold the installed bytes: trusted (zero-copy) view, and no chunk
// of the area written since hw::Memory::stamp_baseline() at boot — in
// which case the memoized digest is bit-for-bit what hashing the view
// gives, and the round's digest is untouched by construction. Anything
// written, raced or glitched is hashed, and so is an area that is not
// fully inside the image (area_digest's own bounds check).
//
// Thread-safe: trials on several threads share one base.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <tuple>
#include <utility>

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

  // hash_bytes over [offset, offset + length) of the pristine bytes,
  // computed on first request and shared afterwards. Empty when the area
  // is not fully inside the pristine bytes.
  std::optional<std::uint64_t> area_digest(HashKind kind, std::size_t offset,
                                           std::size_t length);

  // Area digests memoized so far (diagnostic: a steady-state boot adds 0).
  std::uint64_t digests_built() const;

 private:
  using Key = std::tuple<HashKind, std::size_t, std::size_t>;

  std::shared_ptr<const void> owner_;
  std::span<const std::uint8_t> bytes_;
  mutable std::mutex mutex_;  // guards digests_
  std::map<Key, std::uint64_t> digests_;
};

}  // namespace satin::secure
