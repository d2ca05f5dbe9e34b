// Binary metrics snapshots ("SATNMET1"): the cross-process merge format
// the campaign runtime rides on. The invariant under test: save in one
// process, load_merge in another, and the merged registry snapshots
// byte-identically to an in-process merge — doubles as raw bits, Welford
// and digest state verbatim.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include <unistd.h>

#include "obs/metrics.h"

namespace satin::obs {
namespace {

std::string temp_path(const char* tag) {
  return testing::TempDir() + "/metrics_io_" + tag + ".met";
}

void populate(MetricsRegistry& registry) {
  registry.counter("c.events").inc(41);
  registry.counter("c.events").inc();
  registry.gauge("g.level").set(0.1 + 0.2);  // not representable in decimal
  Gauge& vol = registry.gauge("g.wall_s");
  vol.set(123.456);
  vol.mark_volatile();
  for (int i = 0; i < 1000; ++i) {
    registry.digest("d.lat").observe(1e-6 * i);
    registry.histogram("h.lat").observe(1e-6 * i);
  }
}

TEST(MetricsIo, SaveThenLoadIntoEmptyRegistryIsByteIdentical) {
  const std::string path = temp_path("roundtrip");
  MetricsRegistry original;
  populate(original);
  std::string error;
  ASSERT_TRUE(original.save_binary(path, &error)) << error;

  MetricsRegistry loaded;
  ASSERT_TRUE(loaded.load_merge_binary(path, &error)) << error;
  // Full snapshot, volatile gauges included: exact-state round trip.
  EXPECT_EQ(loaded.to_json(true), original.to_json(true));
  EXPECT_EQ(loaded.to_json(false), original.to_json(false));
  std::remove(path.c_str());
}

TEST(MetricsIo, LoadMergesInsteadOfReplacing) {
  const std::string path = temp_path("merge");
  MetricsRegistry original;
  populate(original);
  std::string error;
  ASSERT_TRUE(original.save_binary(path, &error)) << error;

  // Loading the same snapshot twice doubles the counters — and matches
  // an in-process merge of two identical registries.
  MetricsRegistry twice;
  ASSERT_TRUE(twice.load_merge_binary(path, &error)) << error;
  ASSERT_TRUE(twice.load_merge_binary(path, &error)) << error;

  MetricsRegistry a, b;
  populate(a);
  populate(b);
  a.merge_from(b);
  EXPECT_EQ(twice.to_json(true), a.to_json(true));
  std::remove(path.c_str());
}

TEST(MetricsIo, MissingFileFailsWithClearError) {
  MetricsRegistry registry;
  std::string error;
  EXPECT_FALSE(registry.load_merge_binary(temp_path("nope"), &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(MetricsIo, CorruptFileNeverHalfApplies) {
  const std::string path = temp_path("corrupt");
  MetricsRegistry original;
  populate(original);
  std::string error;
  ASSERT_TRUE(original.save_binary(path, &error)) << error;

  // Truncate mid-body: parse must fail and the target stay untouched.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_GT(size, 40);

  for (const long keep : {0L, 7L, size / 2, size - 3}) {
    std::FILE* w = std::fopen(path.c_str(), "wb");
    ASSERT_NE(w, nullptr);
    std::fclose(w);
    // Re-save then truncate to `keep` bytes.
    ASSERT_TRUE(original.save_binary(path, &error)) << error;
    ASSERT_EQ(::truncate(path.c_str(), keep), 0);

    MetricsRegistry target;
    target.counter("pre.existing").inc(7);
    const std::string before = target.to_json(true);
    EXPECT_FALSE(target.load_merge_binary(path, &error)) << "keep=" << keep;
    EXPECT_EQ(target.to_json(true), before) << "keep=" << keep;
  }
  std::remove(path.c_str());
}

std::string le_u64(std::uint64_t v) {
  std::string out;
  for (int i = 0; i < 8; ++i) out += static_cast<char>(v >> (8 * i));
  return out;
}

std::string saved_bytes(const MetricsRegistry& registry,
                        const std::string& path) {
  std::string error;
  EXPECT_TRUE(registry.save_binary(path, &error)) << error;
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Writes `bytes` to `path` and loads them into a registry that already
// holds a counter: the load must fail whole and leave that registry as it
// was. Returns the error.
std::string expect_rejected(const std::string& path, const std::string& bytes) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  MetricsRegistry target;
  target.counter("c.a").inc(7);
  const std::string before = target.to_json(true);
  std::string error;
  EXPECT_FALSE(target.load_merge_binary(path, &error));
  EXPECT_EQ(target.to_json(true), before);
  std::remove(path.c_str());
  return error;
}

TEST(MetricsIo, NonFiniteHistogramBoundIsRejected) {
  // A file whose histogram carries a NaN or infinite bound is corrupt: it
  // fails whole and leaves the registry as it was.
  const std::string path = temp_path("nan_bound");
  MetricsRegistry original;
  original.histogram("h.lat", {0.5, 1.75, 3.0}).observe(1.0);
  const std::string bytes = saved_bytes(original, path);
  auto le_bytes = [](double v) {
    return le_u64(std::bit_cast<std::uint64_t>(v));
  };
  const std::string bound = le_bytes(1.75);
  const std::size_t at = bytes.find(bound);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(bytes.find(bound, at + 1), std::string::npos);

  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    std::string patched = bytes;
    patched.replace(at, 8, le_bytes(bad));
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(patched.data(), static_cast<std::streamsize>(patched.size()));
    }
    MetricsRegistry target;
    target.counter("pre.existing").inc(7);
    target.histogram("h.lat").observe(2.0);
    const std::string before = target.to_json(true);
    std::string error;
    EXPECT_FALSE(target.load_merge_binary(path, &error)) << bad;
    EXPECT_NE(error.find("finite"), std::string::npos) << error;
    EXPECT_EQ(target.to_json(true), before) << bad;
  }
  std::remove(path.c_str());
}

TEST(MetricsIo, RepeatedOrUnsortedNameIsRejected) {
  // The writer emits each section from a std::map. Renaming c.b to c.a
  // would otherwise merge both counters into one that reads 2 + 5.
  const std::string path = temp_path("names");
  MetricsRegistry original;
  original.counter("c.a").inc(2);
  original.counter("c.b").inc(5);
  const std::string bytes = saved_bytes(original, path);
  const std::size_t at = bytes.find("c.b");
  ASSERT_NE(at, std::string::npos);
  for (const char* rename : {"c.a", "c.0"}) {
    std::string patched = bytes;
    patched.replace(at, 3, rename);
    const std::string error = expect_rejected(path, patched);
    const std::string want =
        std::string("'") + rename + "' repeated or out of order";
    EXPECT_NE(error.find(want), std::string::npos) << error;
  }
}

TEST(MetricsIo, DigestCountMustMatchItsBuckets) {
  const std::string path = temp_path("digest_count");
  MetricsRegistry original;
  original.digest("d.lat").observe(1.0);
  std::string bytes = saved_bytes(original, path);
  // The digest's count follows its name.
  const std::size_t count_at = bytes.find("d.lat") + 5;
  ASSERT_EQ(bytes.substr(count_at, 8), le_u64(1));
  bytes.replace(count_at, 8, le_u64(10));
  const std::string error = expect_rejected(path, bytes);
  EXPECT_NE(error.find("count does not match"), std::string::npos) << error;
}

TEST(MetricsIo, HistogramMomentCountMustMatchItsBuckets) {
  const std::string path = temp_path("histogram_count");
  MetricsRegistry original;
  original.histogram("h.lat", {0.5, 1.75, 3.0}).observe(1.0);
  std::string bytes = saved_bytes(original, path);
  // After the name: three bounds and four bucket counts, each list led by
  // its length, then the moments' count.
  const std::size_t count_at = bytes.find("h.lat") + 5 + 8 + 3 * 8 + 8 + 4 * 8;
  ASSERT_EQ(bytes.substr(count_at, 8), le_u64(1));
  bytes.replace(count_at, 8, le_u64(9));
  const std::string error = expect_rejected(path, bytes);
  EXPECT_NE(error.find("moment count does not match"), std::string::npos)
      << error;
}

TEST(MetricsIo, BadMagicIsRejected) {
  const std::string path = temp_path("magic");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("NOTAMETRICSFILE and then some filler bytes beyond", f);
  std::fclose(f);
  MetricsRegistry registry;
  std::string error;
  EXPECT_FALSE(registry.load_merge_binary(path, &error));
  EXPECT_NE(error.find("SATNMET1"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace satin::obs
