#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

namespace satin::obs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(JsonEscapeTest, EscapesSpecialCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape("a\tb"), "a\\tb");
  EXPECT_EQ(json_escape("a\rb"), "a\\rb");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(CounterTest, IncrementsByOneAndDelta) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(HistogramTest, BucketsOnUpperBoundSemantics) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1      -> bucket 0
  h.observe(1.0);    // == bound  -> bucket 0 (le semantics)
  h.observe(1.0001); //           -> bucket 1
  h.observe(10.0);   //           -> bucket 1
  h.observe(99.0);   //           -> bucket 2
  h.observe(1000.0); //           -> overflow
  const auto& counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.moments().count(), 6u);
  EXPECT_DOUBLE_EQ(h.moments().min(), 0.5);
  EXPECT_DOUBLE_EQ(h.moments().max(), 1000.0);
}

TEST(HistogramTest, RejectsEmptyOrNonIncreasingBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
  // Non-finite bounds: NaN slips past a sortedness check made with <.
  EXPECT_THROW(Histogram({kNaN}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, kNaN, 3.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, kInf}), std::invalid_argument);
  EXPECT_THROW(Histogram({-kInf, 1.0}), std::invalid_argument);
}

// The values a bucket lookup must agree with lower_bound on: the bounds
// and their neighbours, binade edges, zeros, subnormals, infinities, NaNs
// of both signs, negatives, and a spread of random doubles.
std::vector<double> adversarial_values(const std::vector<double>& bounds) {
  std::vector<double> v = {kNaN,
                           -kNaN,
                           0.0,
                           -0.0,
                           kInf,
                           -kInf,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::min() / 3.0,
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::max(),
                           -std::numeric_limits<double>::max(),
                           -1.0,
                           1.0};
  for (const double b : bounds) {
    for (const double x : {b, -b, 2.0 * b, 0.5 * b}) {
      v.push_back(x);
      v.push_back(std::nextafter(x, kInf));
      v.push_back(std::nextafter(x, -kInf));
    }
    // The edges of the bound's binade.
    const double low = std::exp2(std::floor(std::log2(b)));
    for (const double x : {low, 2.0 * low}) {
      v.push_back(x);
      v.push_back(std::nextafter(x, kInf));
      v.push_back(std::nextafter(x, -kInf));
    }
  }
  std::mt19937_64 gen(17);
  for (int i = 0; i < 20000; ++i) {
    const double x = std::bit_cast<double>(gen());
    if (!std::isnan(x)) v.push_back(x);  // NaNs are covered above
  }
  return v;
}

std::size_t reference_bucket(const std::vector<double>& bounds, double x) {
  return static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), x) - bounds.begin());
}

TEST(HistogramTest, BucketLookupMatchesLowerBoundForEveryDouble) {
  const std::vector<std::vector<double>> sets = {
      Histogram::default_time_buckets(),
      {1.0},                // one bound
      {1.0, 1.5, 8.0},      // 1 and 1.5 share a binade: searched
      {0.75, 1.0, 3.5},     // adjacent binades, one bound each
      {1e-300, 1e300},      // a table spanning ~2000 binades
      {-2.0, 0.0, 2.0},     // non-positive bounds: searched
      {std::numeric_limits<double>::denorm_min(), 1.0},  // subnormal bound
      {std::numeric_limits<double>::min(),
       std::numeric_limits<double>::max()},
  };
  for (const auto& bounds : sets) {
    const Histogram h(bounds);
    for (const double x : adversarial_values(bounds)) {
      ASSERT_EQ(h.bucket(x), reference_bucket(bounds, x))
          << "value " << x << " (0x" << std::hex
          << std::bit_cast<std::uint64_t>(x) << std::dec << "), bounds "
          << bounds.front() << ".." << bounds.back();
    }
  }
}

// The moments fold as it was before it went inline: an out-of-line
// Welford update, operation for operation.
struct ReferenceMoments {
  std::uint64_t count = 0;
  double mean = 0.0, m2 = 0.0, min = 0.0, max = 0.0, sum = 0.0;

  [[gnu::noinline]] void add(double x) {
    if (count == 0) {
      min = max = x;
    } else {
      min = std::min(min, x);
      max = std::max(max, x);
    }
    ++count;
    sum += x;
    const double delta = x - mean;
    mean += delta / static_cast<double>(count);
    m2 += delta * (x - mean);
  }
};

// Bit equality, except that any two NaNs match: a NaN's payload after
// NaN + NaN is whichever operand the compiler put first in a commutative
// add, which neither fold pins.
::testing::AssertionResult SameDouble(const char* what, double want,
                                      double got) {
  if (std::bit_cast<std::uint64_t>(want) == std::bit_cast<std::uint64_t>(got) ||
      (std::isnan(want) && std::isnan(got))) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << what << ": want " << want
                                       << ", got " << got;
}

void ExpectFoldMatchesReference(const std::vector<double>& values) {
  const std::vector<double> bounds = Histogram::default_time_buckets();
  Histogram h(bounds);
  std::vector<std::uint64_t> counts(bounds.size() + 1, 0);
  ReferenceMoments ref;
  for (const double x : values) {
    h.observe(x);
    ++counts[reference_bucket(bounds, x)];
    ref.add(x);
  }
  EXPECT_EQ(h.counts(), counts);
  const sim::Accumulator::State s = h.moments().state();
  EXPECT_EQ(s.count, ref.count);
  EXPECT_TRUE(SameDouble("mean", ref.mean, s.mean));
  EXPECT_TRUE(SameDouble("m2", ref.m2, s.m2));
  EXPECT_TRUE(SameDouble("min", ref.min, s.min));
  EXPECT_TRUE(SameDouble("max", ref.max, s.max));
  EXPECT_TRUE(SameDouble("sum", ref.sum, s.sum));
}

TEST(HistogramTest, ObserveFoldMatchesLowerBoundAndOutOfLineWelford) {
  // Staleness-like reads: a ~0.35 * 155 us visibility delay on a report
  // up to 200 us old, with a rare millisecond spike.
  std::mt19937_64 gen(23);
  std::normal_distribution<double> delay(0.35 * 1.55e-4, 0.35 * 3.5e-5);
  std::uniform_real_distribution<double> age(0.0, 2.0e-4);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> reads;
  for (int i = 0; i < 200000; ++i) {
    double x = age(gen) + std::max(0.0, delay(gen));
    if (unit(gen) < 1e-3) x += 1.3e-3 * unit(gen);
    reads.push_back(x);
  }
  ExpectFoldMatchesReference(reads);
  // Adversarial values: those small enough that no field overflows (so
  // every field stays finite and is compared bit for bit), then all.
  std::vector<double> finite;
  for (const double x : adversarial_values(Histogram::default_time_buckets())) {
    if (std::abs(x) < 1e150) finite.push_back(x);
  }
  ExpectFoldMatchesReference(finite);
  ExpectFoldMatchesReference(
      adversarial_values(Histogram::default_time_buckets()));
}

TEST(HistogramTest, DefaultTimeBucketsCoverPaperTimescales) {
  const auto bounds = Histogram::default_time_buckets();
  ASSERT_FALSE(bounds.empty());
  EXPECT_LE(bounds.front(), 1e-9);  // ns-scale hash steps
  EXPECT_GE(bounds.back(), 1e3);    // quarter-hour simulations
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(MetricsRegistryTest, LookupOrCreateReturnsStableReferences) {
  MetricsRegistry reg;
  Counter& a = reg.counter("sub.a");
  a.inc();
  reg.counter("sub.b").inc(5);  // may rebalance the map
  EXPECT_EQ(&reg.counter("sub.a"), &a);
  EXPECT_EQ(reg.counter("sub.a").value(), 1u);
  EXPECT_EQ(reg.find_counter("sub.b")->value(), 5u);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
  EXPECT_EQ(reg.find_gauge("missing"), nullptr);
  EXPECT_EQ(reg.find_histogram("missing"), nullptr);
}

TEST(MetricsRegistryTest, HistogramRebindWithDifferentBucketsThrows) {
  MetricsRegistry reg;
  reg.histogram("h", {1.0, 2.0});
  EXPECT_NO_THROW(reg.histogram("h", {1.0, 2.0}));
  EXPECT_THROW(reg.histogram("h", {1.0, 3.0}), std::logic_error);
}

TEST(MetricsRegistryTest, SnapshotIsIdempotent) {
  MetricsRegistry reg;
  reg.counter("a.events").inc(3);
  reg.gauge("a.depth").set(2.5);
  reg.histogram("a.lat_s", {0.1, 1.0}).observe(0.05);
  const std::string first = reg.to_json();
  const std::string second = reg.to_json();
  EXPECT_EQ(first, second);  // reading a snapshot must not mutate state
  EXPECT_EQ(reg.counter("a.events").value(), 3u);
}

TEST(MetricsRegistryTest, SnapshotIndependentOfRegistrationOrder) {
  MetricsRegistry forward;
  forward.counter("x.one").inc();
  forward.counter("y.two").inc(2);
  forward.gauge("z.g").set(1.0);

  MetricsRegistry backward;
  backward.gauge("z.g").set(1.0);
  backward.counter("y.two").inc(2);
  backward.counter("x.one").inc();

  EXPECT_EQ(forward.to_json(), backward.to_json());
}

TEST(MetricsRegistryTest, SnapshotContainsAllSections) {
  MetricsRegistry reg;
  reg.counter("c.n").inc();
  reg.gauge("g.v").set(-3.5);
  reg.histogram("h.s", {1.0}).observe(2.0);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"c.n\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"g.v\": -3.5"), std::string::npos);
  EXPECT_NE(json.find("\"le\": \"inf\""), std::string::npos);
}

TEST(MetricsRegistryTest, VolatileGaugesSkippedInStableSnapshot) {
  MetricsRegistry reg;
  reg.gauge("engine.wall_seconds").set(1.25);
  reg.gauge("engine.wall_seconds").mark_volatile();
  reg.gauge("engine.events_fired").set(42.0);
  const std::string full = reg.to_json(/*include_volatile=*/true);
  const std::string stable = reg.to_json(/*include_volatile=*/false);
  EXPECT_NE(full.find("engine.wall_seconds"), std::string::npos);
  EXPECT_EQ(stable.find("engine.wall_seconds"), std::string::npos);
  EXPECT_NE(stable.find("engine.events_fired"), std::string::npos);
}

TEST(MetricsRegistryTest, MergePropagatesVolatileFlag) {
  MetricsRegistry trial;
  trial.gauge("engine.wall_seconds").set(0.5);
  trial.gauge("engine.wall_seconds").mark_volatile();
  MetricsRegistry session;
  session.merge_from(trial);
  const std::string stable = session.to_json(/*include_volatile=*/false);
  EXPECT_EQ(stable.find("engine.wall_seconds"), std::string::npos);
}

TEST(MetricsRegistryTest, DigestSectionInSnapshot) {
  MetricsRegistry reg;
  reg.digest("scan.lat_s").observe(0.5);
  reg.digest("scan.lat_s").observe(2.0);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"digests\""), std::string::npos);
  EXPECT_NE(json.find("\"scan.lat_s\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(MetricsRegistryTest, MergeOrderPermutationsYieldIdenticalSnapshots) {
  // The cross-trial aggregation contract: merging per-trial registries in
  // ANY order must produce the same snapshot for counters, digest state
  // and histogram bucket counts. (Histogram Welford moments are only
  // guaranteed for a fixed order, which is why the runner merges in
  // submission order; the digest section has no such caveat.)
  std::vector<MetricsRegistry> trials(3);
  for (std::size_t t = 0; t < trials.size(); ++t) {
    trials[t].counter("satin.rounds").inc(10 * (t + 1));
    for (int i = 0; i < 50; ++i) {
      trials[t].digest("introspect.scan_s")
          .observe(1e-3 * static_cast<double>(i + 1) *
                   static_cast<double>(t + 1));
      trials[t].histogram("introspect.lat_s", {0.01, 0.1, 1.0})
          .observe(1e-2 * static_cast<double>(i % 7));
    }
  }

  std::vector<std::size_t> order = {0, 1, 2};
  MetricsRegistry reference;
  for (std::size_t t : order) reference.merge_from(trials[t]);
  while (std::next_permutation(order.begin(), order.end())) {
    MetricsRegistry merged;
    for (std::size_t t : order) merged.merge_from(trials[t]);
    EXPECT_EQ(merged.counter("satin.rounds").value(),
              reference.counter("satin.rounds").value());
    const QuantileDigest* d = merged.find_digest("introspect.scan_s");
    const QuantileDigest* ref_d = reference.find_digest("introspect.scan_s");
    ASSERT_NE(d, nullptr);
    ASSERT_NE(ref_d, nullptr);
    EXPECT_EQ(d->buckets(), ref_d->buckets());
    EXPECT_EQ(d->count(), ref_d->count());
    EXPECT_DOUBLE_EQ(d->min(), ref_d->min());
    EXPECT_DOUBLE_EQ(d->max(), ref_d->max());
    EXPECT_EQ(merged.find_histogram("introspect.lat_s")->counts(),
              reference.find_histogram("introspect.lat_s")->counts());
  }
}

TEST(MetricsMacroTest, MacrosNoOpWithoutRegistry) {
  install_metrics(nullptr);
  SATIN_METRIC_INC("m.a");
  SATIN_METRIC_ADD("m.b", 7);
  SATIN_METRIC_GAUGE_SET("m.c", 1.0);
  SATIN_METRIC_OBSERVE("m.d", 0.5);
  SATIN_METRIC_DIGEST_OBSERVE("m.e", 0.5);
  SUCCEED();
}

TEST(MetricsMacroTest, MacrosEmitIntoInstalledRegistry) {
  MetricsRegistry reg;
  install_metrics(&reg);
  SATIN_METRIC_INC("m.a");
  SATIN_METRIC_ADD("m.a", 9);
  SATIN_METRIC_GAUGE_SET("m.g", 4.25);
  SATIN_METRIC_OBSERVE("m.h", 0.5);
  SATIN_METRIC_DIGEST_OBSERVE("m.q", 0.25);
  install_metrics(nullptr);
  SATIN_METRIC_INC("m.a");  // after uninstall: must not land

  EXPECT_EQ(reg.find_counter("m.a")->value(), 10u);
  EXPECT_DOUBLE_EQ(reg.find_gauge("m.g")->value(), 4.25);
  EXPECT_EQ(reg.find_histogram("m.h")->moments().count(), 1u);
  EXPECT_EQ(reg.find_digest("m.q")->count(), 1u);
}

TEST(MetricsRegistryTest, IdAndNameLookupsReturnTheSameMetric) {
  MetricsRegistry reg;
  const MetricId id = next_metric_site();
  Counter& by_id = reg.counter(id, "ids.events");
  EXPECT_EQ(&by_id, &reg.counter("ids.events"));
  EXPECT_EQ(&reg.counter(id, "ids.events"), &by_id);  // the bound slot
  // A second site with the same name binds to the same metric.
  EXPECT_EQ(&reg.counter(next_metric_site(), "ids.events"), &by_id);
  EXPECT_EQ(&reg.gauge(next_metric_site(), "ids.g"), &reg.gauge("ids.g"));
  EXPECT_EQ(&reg.histogram(next_metric_site(), "ids.h"),
            &reg.histogram("ids.h"));
  EXPECT_EQ(&reg.digest(next_metric_site(), "ids.d"), &reg.digest("ids.d"));
  // A histogram pre-registered with its own buckets keeps them.
  reg.histogram("ids.custom", {1.0, 2.0});
  EXPECT_EQ(reg.histogram(next_metric_site(), "ids.custom").upper_bounds(),
            (std::vector<double>{1.0, 2.0}));
}

void emit_shared_site_a() { SATIN_METRIC_INC("m.shared"); }
void emit_shared_site_b() { SATIN_METRIC_ADD("m.shared", 4); }

TEST(MetricsMacroTest, OneLiteralAtTwoSitesFeedsOneMetric) {
  MetricsRegistry reg;
  install_metrics(&reg);
  emit_shared_site_a();
  emit_shared_site_b();
  emit_shared_site_a();
  install_metrics(nullptr);
  EXPECT_EQ(reg.find_counter("m.shared")->value(), 6u);
}

TEST(MetricsMacroTest, CopiedRegistryNeverAliasesItsSource) {
  MetricsRegistry source;
  install_metrics(&source);
  emit_shared_site_a();  // binds source's slot
  install_metrics(nullptr);

  MetricsRegistry copy(source);
  install_metrics(&copy);
  emit_shared_site_a();
  install_metrics(nullptr);
  EXPECT_EQ(source.find_counter("m.shared")->value(), 1u);
  EXPECT_EQ(copy.find_counter("m.shared")->value(), 2u);

  MetricsRegistry assigned;
  install_metrics(&assigned);
  emit_shared_site_b();  // binds assigned's own slot, then drops it
  install_metrics(nullptr);
  assigned = source;
  install_metrics(&assigned);
  emit_shared_site_a();
  install_metrics(nullptr);
  EXPECT_EQ(source.find_counter("m.shared")->value(), 1u);
  EXPECT_EQ(assigned.find_counter("m.shared")->value(), 2u);

  // The source still emits into its own map after being copied from.
  install_metrics(&source);
  emit_shared_site_b();
  install_metrics(nullptr);
  EXPECT_EQ(source.find_counter("m.shared")->value(), 5u);
  EXPECT_EQ(copy.find_counter("m.shared")->value(), 2u);
  EXPECT_EQ(assigned.find_counter("m.shared")->value(), 2u);
}

TEST(MetricsMacroTest, MovedRegistryKeepsEmittingIntoItsMetrics) {
  MetricsRegistry source;
  install_metrics(&source);
  emit_shared_site_a();
  install_metrics(nullptr);
  MetricsRegistry moved(std::move(source));
  install_metrics(&moved);
  emit_shared_site_a();
  install_metrics(nullptr);
  EXPECT_EQ(moved.find_counter("m.shared")->value(), 2u);

  MetricsRegistry target;
  target = std::move(moved);
  install_metrics(&target);
  emit_shared_site_b();
  install_metrics(nullptr);
  EXPECT_EQ(target.find_counter("m.shared")->value(), 6u);
}

// One emission of every kind, plus sites that never run.
void emit_every_kind(bool take_branch) {
  SATIN_METRIC_INC("snap.count");
  SATIN_METRIC_ADD("snap.count", 2);
  SATIN_METRIC_ADD("snap.zero_delta", 0);
  SATIN_METRIC_GAUGE_SET("snap.gauge", 2.5);
  SATIN_METRIC_OBSERVE("snap.hist_s", 3e-6);
  SATIN_METRIC_DIGEST_OBSERVE("snap.digest_s", 4e-3);
  if (take_branch) {
    SATIN_METRIC_INC("snap.branch_never_taken");
    SATIN_METRIC_OBSERVE("snap.hist_never_taken", 1.0);
  }
}

TEST(MetricsMacroTest, MacroSnapshotEqualsByNameSnapshot) {
  MetricsRegistry by_macro;
  install_metrics(&by_macro);
  emit_every_kind(false);
  emit_every_kind(false);
  install_metrics(nullptr);

  MetricsRegistry by_name;
  for (int i = 0; i < 2; ++i) {
    by_name.counter("snap.count").inc();
    by_name.counter("snap.count").inc(2);
    by_name.counter("snap.zero_delta").inc(0);
    by_name.gauge("snap.gauge").set(2.5);
    by_name.histogram("snap.hist_s").observe(3e-6);
    by_name.digest("snap.digest_s").observe(4e-3);
  }

  EXPECT_EQ(by_macro.to_json(), by_name.to_json());
  // A zero-delta add still creates the counter at its first emission.
  ASSERT_NE(by_macro.find_counter("snap.zero_delta"), nullptr);
  EXPECT_EQ(by_macro.find_counter("snap.zero_delta")->value(), 0u);
  EXPECT_EQ(by_macro.find_counter("snap.branch_never_taken"), nullptr);
  EXPECT_EQ(by_macro.find_histogram("snap.hist_never_taken"), nullptr);
}

}  // namespace
}  // namespace satin::obs
