#include "sim/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace satin::sim {

void Accumulator::merge(const Accumulator& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  mean_ += delta * nb / (na + nb);
  m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Accumulator::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

Accumulator::State Accumulator::state() const {
  State s;
  s.count = count_;
  s.mean = mean_;
  s.m2 = m2_;
  s.min = min_;
  s.max = max_;
  s.sum = sum_;
  return s;
}

void Accumulator::restore(const State& s) {
  count_ = static_cast<std::size_t>(s.count);
  mean_ = s.mean;
  m2_ = s.m2;
  min_ = s.min;
  max_ = s.max;
  sum_ = s.sum;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile: empty sample");
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile: bad p");
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) return samples.front();
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

BoxStats make_box_stats(std::vector<double> samples) {
  if (samples.empty()) {
    throw std::invalid_argument("make_box_stats: empty sample");
  }
  std::sort(samples.begin(), samples.end());
  BoxStats box;
  box.q1 = percentile(samples, 25.0);
  box.median = percentile(samples, 50.0);
  box.q3 = percentile(samples, 75.0);
  const double iqr = box.q3 - box.q1;
  const double lo_fence = box.q1 - 1.5 * iqr;
  const double hi_fence = box.q3 + 1.5 * iqr;
  box.whisker_low = box.q3;  // fall back to a sane value if all outliers
  box.whisker_high = box.q1;
  bool any_in_fence = false;
  for (double x : samples) {
    if (x >= lo_fence && x <= hi_fence) {
      if (!any_in_fence) {
        box.whisker_low = x;
        any_in_fence = true;
      }
      box.whisker_high = x;
    } else {
      box.outliers.push_back(x);
    }
  }
  return box;
}

}  // namespace satin::sim
