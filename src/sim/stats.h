// Statistics helpers for the evaluation harnesses.
//
// The paper reports avg/max/min over 50 repetitions (Tables I, II), a
// box-and-whisker plot (Fig. 4), and normalized degradation percentages
// (Fig. 7). These helpers compute exactly those shapes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace satin::sim {

// Streaming accumulator: count, mean (Welford), min, max, variance.
class Accumulator {
 public:
  // Inline: the attack.staleness_s histogram adds every cross-core read.
  void add(double x) {
    if (count_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
  }

  // Combines another accumulator into this one (Chan et al. parallel
  // Welford). The result depends only on the two operands and their
  // order, so merging per-trial accumulators in submission order yields
  // the same bits no matter how many workers produced them.
  void merge(const Accumulator& other);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }
  // Sample variance / standard deviation (n-1 denominator).
  double variance() const;
  double stddev() const;

  // Exact internal state, for binary serialization across process
  // boundaries (campaign workers persist per-trial metrics and the
  // supervisor restores them before the submission-order merge). A
  // restore()d accumulator merges bit-identically to the original.
  struct State {
    std::uint64_t count = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;
  };
  State state() const;
  void restore(const State& s);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Linear-interpolation percentile of a sample set; p in [0, 100].
double percentile(std::vector<double> samples, double p);

// Box-plot statistics in the Tukey convention used by Fig. 4: whiskers at
// the last sample within 1.5*IQR of the quartiles, the rest outliers.
struct BoxStats {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double whisker_low = 0.0;
  double whisker_high = 0.0;
  std::vector<double> outliers;
};

BoxStats make_box_stats(std::vector<double> samples);

}  // namespace satin::sim
