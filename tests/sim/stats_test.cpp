#include "sim/stats.h"

#include <gtest/gtest.h>

namespace satin::sim {
namespace {

TEST(Accumulator, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.min(), 0.0);
  EXPECT_EQ(acc.max(), 0.0);
  EXPECT_EQ(acc.stddev(), 0.0);
}

TEST(Accumulator, SingleValue) {
  Accumulator acc;
  acc.add(4.2);
  EXPECT_EQ(acc.count(), 1u);
  EXPECT_DOUBLE_EQ(acc.mean(), 4.2);
  EXPECT_DOUBLE_EQ(acc.min(), 4.2);
  EXPECT_DOUBLE_EQ(acc.max(), 4.2);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, KnownMoments) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);  // sample variance
}

TEST(Accumulator, NegativeValues) {
  Accumulator acc;
  acc.add(-3.0);
  acc.add(3.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.min(), -3.0);
}

TEST(Percentile, Median) {
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
}

TEST(Percentile, Interpolates) {
  EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 25.0), 2.5);
}

TEST(Percentile, Extremes) {
  const std::vector<double> v{5.0, 1.0, 9.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 9.0);
}

TEST(Percentile, SingleSample) {
  EXPECT_DOUBLE_EQ(percentile({7.0}, 73.0), 7.0);
}

TEST(Percentile, RejectsEmptyAndBadP) {
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101.0), std::invalid_argument);
}

TEST(BoxStats, QuartilesOfUniformRamp) {
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  const BoxStats box = make_box_stats(v);
  EXPECT_DOUBLE_EQ(box.median, 51.0);
  EXPECT_DOUBLE_EQ(box.q1, 26.0);
  EXPECT_DOUBLE_EQ(box.q3, 76.0);
  EXPECT_DOUBLE_EQ(box.whisker_low, 1.0);
  EXPECT_DOUBLE_EQ(box.whisker_high, 101.0);
  EXPECT_TRUE(box.outliers.empty());
}

TEST(BoxStats, DetectsOutliers) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 100};
  const BoxStats box = make_box_stats(v);
  ASSERT_EQ(box.outliers.size(), 1u);
  EXPECT_DOUBLE_EQ(box.outliers.front(), 100.0);
  EXPECT_DOUBLE_EQ(box.whisker_high, 8.0);
}

TEST(BoxStats, AllEqualSamples) {
  const BoxStats box = make_box_stats({2.0, 2.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(box.median, 2.0);
  EXPECT_DOUBLE_EQ(box.whisker_low, 2.0);
  EXPECT_DOUBLE_EQ(box.whisker_high, 2.0);
  EXPECT_TRUE(box.outliers.empty());
}

TEST(BoxStats, RejectsEmpty) {
  EXPECT_THROW(make_box_stats({}), std::invalid_argument);
}

}  // namespace
}  // namespace satin::sim
