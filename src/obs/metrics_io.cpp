// Binary MetricsRegistry snapshots ("SATNMET1").
//
// JSON snapshots round doubles through %.9g, which is fine for humans but
// not for the campaign runtime: a worker process persists its per-trial
// registry to disk and the supervisor must merge it with EXACTLY the bits
// an in-process merge would have produced, or the crash-identity gate
// (jobs=1 uninterrupted vs crashed/retried/resumed) fails on the last
// ulp. So this format stores raw state — doubles as bit patterns,
// Welford moments and digest buckets verbatim — little-endian, with a
// magic and version so a foreign or truncated file is rejected whole
// instead of half-applied.
#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/file_io.h"
#include "obs/metrics.h"

namespace satin::obs {

namespace {

constexpr char kMagic[8] = {'S', 'A', 'T', 'N', 'M', 'E', 'T', '1'};
constexpr std::uint32_t kVersion = 1;
// Caps keep a corrupt length field from turning into a multi-GiB
// allocation before the real validation gets a chance to reject it.
constexpr std::uint32_t kMaxNameLen = 4096;
constexpr std::uint64_t kMaxEntries = 1u << 20;

class Writer {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes_.append(s);
  }
  const std::string& bytes() const { return bytes_; }

 private:
  void raw(const void* p, std::size_t n) {
    bytes_.append(static_cast<const char*>(p), n);
  }
  std::string bytes_;
};

class Reader {
 public:
  Reader(const std::string& bytes, std::string* error)
      : bytes_(bytes), error_(error) {}

  bool ok() const { return ok_; }

  bool u8(std::uint8_t& v) { return raw(&v, sizeof(v)); }
  bool u32(std::uint32_t& v) { return raw(&v, sizeof(v)); }
  bool u64(std::uint64_t& v) { return raw(&v, sizeof(v)); }
  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    std::memcpy(&v, &bits, sizeof(v));
    return true;
  }
  bool str(std::string& s) {
    std::uint32_t len = 0;
    if (!u32(len)) return false;
    if (len > kMaxNameLen) return fail("name length out of range");
    if (bytes_.size() - pos_ < len) return fail("truncated string");
    s.assign(bytes_, pos_, len);
    pos_ += len;
    return true;
  }
  bool vec_u64(std::vector<std::uint64_t>& v, std::uint64_t n) {
    if (n > kMaxEntries) return fail("vector length out of range");
    v.resize(static_cast<std::size_t>(n));
    for (auto& x : v) {
      if (!u64(x)) return false;
    }
    return true;
  }
  bool vec_f64(std::vector<double>& v, std::uint64_t n) {
    if (n > kMaxEntries) return fail("vector length out of range");
    v.resize(static_cast<std::size_t>(n));
    for (auto& x : v) {
      if (!f64(x)) return false;
    }
    return true;
  }
  // Starts a section: returns its entry count (0 once reading has
  // failed) and forgets the names of the section before.
  std::uint64_t section() {
    last_name_.reset();
    std::uint64_t n = 0;
    if (u64(n) && n > kMaxEntries) fail("section entry count out of range");
    return ok_ ? n : 0;
  }
  // Reads an entry's name. The writer emits every section from a
  // std::map, so names strictly increase: a repeat would otherwise merge
  // into its twin unnoticed.
  bool name(std::string& s) {
    if (!str(s)) return false;
    if (last_name_ && !(*last_name_ < s)) {
      return fail("name '" + s + "' repeated or out of order");
    }
    last_name_ = s;
    return true;
  }
  bool at_end() const { return pos_ == bytes_.size(); }

  bool fail(const std::string& message) {
    if (ok_ && error_ != nullptr) {
      *error_ = message + " at byte " + std::to_string(pos_);
    }
    ok_ = false;
    return false;
  }

 private:
  bool raw(void* p, std::size_t n) {
    if (!ok_) return false;
    if (bytes_.size() - pos_ < n) return fail("truncated record");
    std::memcpy(p, bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  const std::string& bytes_;
  std::string* error_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  std::optional<std::string> last_name_;
};

bool set_error(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

bool MetricsRegistry::save_binary(const std::string& path,
                                  std::string* error) const {
  Writer body;
  for (char c : kMagic) body.u8(static_cast<std::uint8_t>(c));
  body.u32(kVersion);

  body.u64(counters_.size());
  for (const auto& [name, c] : counters_) {
    body.str(name);
    body.u64(c.value());
  }
  body.u64(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    body.str(name);
    body.f64(g.value());
    body.u8(g.is_volatile() ? 1 : 0);
  }
  body.u64(digests_.size());
  for (const auto& [name, d] : digests_) {
    body.str(name);
    body.u64(d.count());
    body.f64(d.count() ? d.min() : 0.0);
    body.f64(d.count() ? d.max() : 0.0);
    body.u64(d.underflow());
    body.u64(d.overflow());
    body.u64(d.buckets().size());
    for (std::uint64_t b : d.buckets()) body.u64(b);
  }
  body.u64(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    body.str(name);
    body.u64(h.upper_bounds().size());
    for (double b : h.upper_bounds()) body.f64(b);
    body.u64(h.counts().size());
    for (std::uint64_t n : h.counts()) body.u64(n);
    const sim::Accumulator::State s = h.moments().state();
    body.u64(s.count);
    body.f64(s.mean);
    body.f64(s.m2);
    body.f64(s.min);
    body.f64(s.max);
    body.f64(s.sum);
  }

  // Crash-safe but not fsync'd: the campaign writes one per trial, and
  // only its journal append is durable across a power cut (worker.h).
  return replace_file(path, body.bytes(), /*sync=*/false, error);
}

bool MetricsRegistry::load_merge_binary(const std::string& path,
                                        std::string* error) {
  std::string bytes;
  if (!read_file(path, bytes, error)) return false;

  std::string detail;
  Reader r(bytes, &detail);
  char magic[8] = {};
  for (char& c : magic) {
    std::uint8_t b = 0;
    if (!r.u8(b)) break;
    c = static_cast<char>(b);
  }
  if (!r.ok() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return set_error(error, path + ": not a SATNMET1 metrics snapshot");
  }
  std::uint32_t version = 0;
  if (!r.u32(version) || version != kVersion) {
    return set_error(error, path + ": unsupported snapshot version");
  }

  // Parse into a scratch registry first: a truncated or corrupt file must
  // reject whole, never merge half its sections.
  MetricsRegistry scratch;

  std::uint64_t count = r.section();
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    std::string name;
    std::uint64_t value = 0;
    if (r.name(name) && r.u64(value)) scratch.counter(name).inc(value);
  }

  count = r.section();
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    std::string name;
    double value = 0.0;
    std::uint8_t is_volatile = 0;
    if (r.name(name) && r.f64(value) && r.u8(is_volatile)) {
      Gauge& g = scratch.gauge(name);
      g.set(value);
      if (is_volatile != 0) g.mark_volatile();
    }
  }

  count = r.section();
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    std::string name;
    std::uint64_t total = 0, underflow = 0, overflow = 0, buckets = 0;
    double min = 0.0, max = 0.0;
    std::vector<std::uint64_t> bucket_counts;
    if (r.name(name) && r.u64(total) && r.f64(min) && r.f64(max) &&
        r.u64(underflow) && r.u64(overflow) && r.u64(buckets) &&
        r.vec_u64(bucket_counts, buckets)) {
      try {
        scratch.digest(name).restore(bucket_counts, underflow, overflow,
                                     total, min, max);
      } catch (const std::exception& e) {
        r.fail(name + ": " + e.what());
        break;
      }
    }
  }

  count = r.section();
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    std::string name;
    std::uint64_t bounds_n = 0, counts_n = 0;
    std::vector<double> bounds;
    std::vector<std::uint64_t> bucket_counts;
    sim::Accumulator::State s;
    if (r.name(name) && r.u64(bounds_n) && r.vec_f64(bounds, bounds_n) &&
        r.u64(counts_n) && r.vec_u64(bucket_counts, counts_n) &&
        r.u64(s.count) && r.f64(s.mean) && r.f64(s.m2) && r.f64(s.min) &&
        r.f64(s.max) && r.f64(s.sum)) {
      if (counts_n != bounds_n + 1) {
        r.fail("histogram bucket/bound mismatch");
        break;
      }
      try {
        scratch.histogram(name, bounds).restore(bucket_counts, s);
      } catch (const std::exception& e) {
        r.fail(name + ": " + e.what());
        break;
      }
    }
  }

  if (!r.ok()) return set_error(error, path + ": " + detail);
  if (!r.at_end()) return set_error(error, path + ": trailing bytes");

  merge_from(scratch);
  return true;
}

}  // namespace satin::obs
