#include "secure/introspect.h"

#include <utility>

#include "obs/flight/recorder.h"
#include "obs/metrics.h"

namespace satin::secure {

const char* to_string(ScanStrategy strategy) {
  switch (strategy) {
    case ScanStrategy::kDirectHash:
      return "direct-hash";
    case ScanStrategy::kSnapshotThenHash:
      return "snapshot";
  }
  return "?";
}

Introspector::Introspector(hw::Platform& platform, HashKind hash,
                           ScanStrategy strategy)
    : platform_(platform),
      hash_(hash),
      strategy_(strategy),
      rng_(platform.rng().fork("introspector")),
      cache_(hash) {}

double Introspector::sample_per_byte_seconds(hw::CoreType type) {
  const hw::JitterSpec& spec = strategy_ == ScanStrategy::kDirectHash
                                   ? platform_.timing().hash_per_byte(type)
                                   : platform_.timing().snapshot_per_byte(type);
  return spec.sample_seconds(rng_);
}

void Introspector::scan_async(hw::CoreId core, std::size_t offset,
                              std::size_t length,
                              std::function<void(const ScanResult&)> done) {
  const hw::CoreType type = platform_.core(core).type();
  const double per_byte_s = sample_per_byte_seconds(type);
  const double per_byte_ps = per_byte_s * 1e12;
  const sim::Time start = platform_.engine().now();
  auto token = platform_.memory().begin_scan(start, offset, length, per_byte_ps);
  SATIN_FLIGHT_RECORD(obs::FlightKind::kScanStart, start, scans_, core,
                      (static_cast<std::uint64_t>(offset) << 32) |
                          static_cast<std::uint64_t>(length));

  const sim::Duration total = sim::Duration::from_sec_f(
      per_byte_s * static_cast<double>(length));
  platform_.engine().schedule_after(
      total, [this, core, token, offset, length, start, per_byte_s,
              done = std::move(done)]() mutable {
        // Zero-copy on the common no-race path: the view is a window into
        // physical memory, hashed before anything else can mutate it. A
        // materialized (owned) view means a timed write raced the cursor
        // or a fault hook flipped a bit the scan observed — those rounds
        // bypass the digest cache and are hashed, so detection semantics
        // never depend on cache state.
        const auto seen = platform_.memory().finish_scan(token);
        const auto cached = cache_.round_digest(platform_.memory(), offset,
                                                seen.bytes(), !seen.owned());
        ScanResult result;
        result.digest = cached.digest;
        result.offset = offset;
        result.length = length;
        result.scan_start = start;
        result.scan_end = platform_.engine().now();
        result.per_byte_s = per_byte_s;
        ++scans_;
        SATIN_FLIGHT_RECORD(obs::FlightKind::kScanEnd, result.scan_end,
                            scans_ - 1, core, result.digest);
        // Cache observability. RoundOutcome bookkeeping is identical with
        // the cache enabled or in shadow mode, so these counters and
        // records are part of the bit-identity contract, not an
        // exception to it. Simulated scan time above was already charged
        // in full — hits only save host time.
        SATIN_FLIGHT_RECORD(
            obs::FlightKind::kDigestCache, result.scan_end, scans_ - 1, core,
            (static_cast<std::uint64_t>(cached.bytes_hashed) << 2) |
                static_cast<std::uint64_t>(
                    cached.bypassed ? obs::FlightCacheOutcome::kBypass
                    : cached.chunk_hits > 0
                        ? obs::FlightCacheOutcome::kServed
                        : obs::FlightCacheOutcome::kHashed));
        SATIN_METRIC_ADD("digest_cache.hits", cached.chunk_hits);
        SATIN_METRIC_ADD("digest_cache.misses", cached.chunk_misses);
        SATIN_METRIC_ADD("digest_cache.bytes_hashed", cached.bytes_hashed);
        SATIN_METRIC_ADD("digest_cache.bytes_skipped", cached.bytes_skipped);
        if (cached.bypassed) SATIN_METRIC_INC("digest_cache.bypasses");
        SATIN_METRIC_INC("introspect.scans");
        SATIN_METRIC_ADD("introspect.bytes_scanned", length);
        SATIN_METRIC_DIGEST_OBSERVE("introspect.scan_s",
                                    (result.scan_end - start).sec());
        done(result);
      });
}

}  // namespace satin::secure
