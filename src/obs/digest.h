// Streaming cross-trial quantile digests.
//
// The campaign ladder aggregates millions of trials without buffering
// them, so every distribution summary must be *mergeable*: per-trial
// digests fold into a session digest, and the result must not depend on
// merge order (workers finish in racy order; submission-order merge makes
// the output deterministic, and a permutation-invariant digest makes it
// deterministic even if that discipline ever changes upstream — e.g. a
// future campaign daemon streaming shard summaries as they arrive).
//
// QuantileDigest buckets values on a log2 grid: 8 sub-buckets per octave
// over 2^-64 .. 2^64 (1024 fixed buckets, ~9% relative error per bucket),
// plus underflow/overflow bins and exact min/max. All state is integer
// counts plus commutative min/max, so merge is associative, commutative
// and bit-exact under any permutation — unlike sim::Accumulator's Welford
// moments, whose floating-point merge is order-sensitive. Quantiles
// (p50/p95/p99) are reconstructed from the bucket counts at snapshot
// time; observe() is a handful of integer ops (bit tricks on the double
// representation, no libm), cheap enough for per-event hot paths.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace satin::obs {

class QuantileDigest {
 public:
  // 2^kSubBits sub-buckets per octave; exponents clamped to
  // [kMinExp, kMaxExp) cover every quantity the simulator observes
  // (sub-picosecond latencies to multi-billion counts).
  static constexpr int kSubBits = 3;
  static constexpr int kMinExp = -64;
  static constexpr int kMaxExp = 64;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp) << kSubBits;

  QuantileDigest() : buckets_(kBuckets, 0) {}

  void observe(double value) {
    ++count_;
    if (count_ == 1) {
      min_ = max_ = value;
    } else {
      if (value < min_) min_ = value;
      if (value > max_) max_ = value;
    }
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
    // Sign bit set (negatives, -0.0) or exponent below range: underflow
    // bin. Zero and subnormals land there too (biased exponent 0).
    const int biased = static_cast<int>((bits >> 52) & 0x7FF);
    const int exp = biased - 1023;  // value in [2^exp, 2^(exp+1))
    if ((bits >> 63) != 0 || biased == 0 || exp < kMinExp) {
      ++underflow_;
      return;
    }
    if (exp >= kMaxExp || biased == 0x7FF) {  // out of range, inf, NaN
      ++overflow_;
      return;
    }
    const std::uint64_t sub = (bits >> (52 - kSubBits)) & ((1u << kSubBits) - 1);
    ++buckets_[(static_cast<std::size_t>(exp - kMinExp) << kSubBits) + sub];
  }

  // Adds the other digest's counts into this one. Pure integer adds plus
  // commutative min/max: any merge order yields identical state.
  void merge_from(const QuantileDigest& other);

  std::uint64_t count() const { return count_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  // Value at quantile q in [0, 1], reconstructed from the bucket grid
  // (bucket midpoint, clamped to the exact [min, max]); 0 when empty.
  double quantile(double q) const;

  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  // Exposed for tests (permutation-invariance is asserted on the raw state).
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }

  // Exact-state restore for binary (de)serialization across process
  // boundaries; a restored digest merges bit-identically to the original.
  // `buckets` must have exactly kBuckets entries, and with `underflow` and
  // `overflow` add up to `count` (throws otherwise).
  void restore(const std::vector<std::uint64_t>& buckets,
               std::uint64_t underflow, std::uint64_t overflow,
               std::uint64_t count, double min, double max);

 private:
  static double bucket_midpoint(std::size_t index);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t underflow_ = 0;  // <= 0, subnormal, or below 2^kMinExp
  std::uint64_t overflow_ = 0;   // >= 2^kMaxExp, inf, NaN
  std::uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace satin::obs
