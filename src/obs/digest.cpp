#include "obs/digest.h"

#include <cmath>
#include <stdexcept>

namespace satin::obs {

void QuantileDigest::restore(const std::vector<std::uint64_t>& buckets,
                             std::uint64_t underflow, std::uint64_t overflow,
                             std::uint64_t count, double min, double max) {
  if (buckets.size() != kBuckets) {
    throw std::invalid_argument("QuantileDigest::restore: bucket count");
  }
  // observe() counts each value in one bin, so the bins add up to the
  // count without passing 2^64.
  std::uint64_t binned = underflow;
  bool wrapped = __builtin_add_overflow(binned, overflow, &binned);
  for (std::uint64_t n : buckets) {
    wrapped |= __builtin_add_overflow(binned, n, &binned);
  }
  if (wrapped || binned != count) {
    throw std::invalid_argument(
        "QuantileDigest::restore: count does not match the bins");
  }
  buckets_ = buckets;
  underflow_ = underflow;
  overflow_ = overflow;
  count_ = count;
  min_ = min;
  max_ = max;
}

void QuantileDigest::merge_from(const QuantileDigest& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
  count_ += other.count_;
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
}

double QuantileDigest::bucket_midpoint(std::size_t index) {
  const int exp = static_cast<int>(index >> kSubBits) + kMinExp;
  const double sub = static_cast<double>(index & ((1u << kSubBits) - 1));
  constexpr double kSubCount = 1u << kSubBits;
  // Bucket spans [2^exp * (1 + sub/8), 2^exp * (1 + (sub+1)/8)).
  const double lo = 1.0 + sub / kSubCount;
  const double hi = 1.0 + (sub + 1.0) / kSubCount;
  return std::ldexp((lo + hi) * 0.5, exp);
}

double QuantileDigest::quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  // Rank of the requested quantile, 1-based; walk the bins in value order.
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  std::uint64_t seen = underflow_;
  if (rank <= seen) return min_;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (rank <= seen) {
      double v = bucket_midpoint(i);
      if (v < min_) v = min_;
      if (v > max_) v = max_;
      return v;
    }
  }
  return max_;  // overflow bin
}

}  // namespace satin::obs
