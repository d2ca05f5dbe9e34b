// Secure-world introspection engine.
//
// Performs timed linear scans of normal-world kernel memory from the
// secure world, with the two acquisition strategies §IV-B1 compares:
//   * direct hash — read the live kernel and hash it as it streams;
//   * snapshot    — copy into secure memory, then analyze the copy (the
//     copy is immune to later writes; the race window is the copy pass).
// Per-byte speeds come from Table I calibration and depend on the core
// type (A57 beats A53). The bytes fed to the hash are the bytes the scan
// cursor actually saw — a normal-world write wins the race iff it lands
// before the cursor (see hw/memory.h).
#pragma once

#include <cstdint>
#include <functional>

#include "hw/platform.h"
#include "secure/digest_cache.h"
#include "secure/hash.h"

namespace satin::secure {

enum class ScanStrategy { kDirectHash, kSnapshotThenHash };

const char* to_string(ScanStrategy strategy);

struct ScanResult {
  std::uint64_t digest = 0;
  std::size_t offset = 0;
  std::size_t length = 0;
  sim::Time scan_start;
  sim::Time scan_end;
  // Sampled per-byte speed of this pass, seconds per byte.
  double per_byte_s = 0.0;
};

class Introspector {
 public:
  explicit Introspector(hw::Platform& platform,
                        HashKind hash = HashKind::kDjb2,
                        ScanStrategy strategy = ScanStrategy::kDirectHash);

  HashKind hash_kind() const { return hash_; }
  ScanStrategy strategy() const { return strategy_; }

  // Samples this core type's per-byte speed without scanning (benches).
  double sample_per_byte_seconds(hw::CoreType type);

  // Starts a scan of [offset, offset+length) on `core` at the current
  // simulated time; `done` fires when the pass completes, with the digest
  // of the observed bytes.
  void scan_async(hw::CoreId core, std::size_t offset, std::size_t length,
                  std::function<void(const ScanResult&)> done);

  // Untimed digest of a pristine byte range (boot-time authorization).
  std::uint64_t digest_reference(std::span<const std::uint8_t> bytes) const {
    return hash_bytes(hash_, bytes);
  }

  std::uint64_t scans_completed() const { return scans_; }

  // The digest cache behind scan_async (host-time fast path;
  // digests, simulated time and TOCTTOU semantics are unaffected by it —
  // see secure/digest_cache.h).
  DigestCache& digest_cache() { return cache_; }
  const DigestCache& digest_cache() const { return cache_; }

 private:
  hw::Platform& platform_;
  HashKind hash_;
  ScanStrategy strategy_;
  sim::Rng rng_;
  DigestCache cache_;
  std::uint64_t scans_ = 0;
};

}  // namespace satin::secure
