// Named metrics for the simulator: counters, gauges and fixed-bucket
// histograms (moments via sim::Accumulator), exported as a deterministic
// JSON snapshot.
//
// Naming convention: "<subsystem>.<metric>[_<unit>]", lower_snake case,
// e.g. "introspect.bytes_scanned", "attack.staleness_s". Counters count
// events, gauges carry last-written values (engine self-metrics), and
// histograms record distributions (probe staleness, switch durations).
//
// Components emit through SATIN_METRIC_* macros; with no registry
// installed a macro is one pointer test. An enabled emission costs a slot
// lookup plus the add or observe itself: each macro site takes a site id
// once per process (next_metric_site) and the registry caches, per id, a
// pointer into its own name-keyed maps.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/digest.h"
#include "sim/stats.h"

namespace satin::obs {

// Dense, process-wide id of one SATIN_METRIC_* site. Ids are handed out
// in first-emission order, so they are not stable across processes;
// nothing persisted or exported ever carries one. Two sites that share a
// literal get two ids, and both bind to the one metric of that name.
enum class MetricId : std::uint32_t {};

// Most sites one process may hold; also the length of a slot table.
inline constexpr std::size_t kMaxMetricSites = 1024;

// Hands out the next site id (one atomic add, so any thread may call it).
// The SATIN_METRIC_* macros call it once per site and keep the id in a
// function-local static. Throws std::length_error past kMaxMetricSites.
MetricId next_metric_site();

class Counter {
 public:
  void inc(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double value) { value_ = value; }
  double value() const { return value_; }

  // Volatile gauges carry host-dependent values (wall clock, allocator
  // high-water marks) that are NOT part of the bit-identity contract.
  // Stable snapshots (--metrics-stable, to_json(false)) omit them so CI
  // identity gates can diff snapshots verbatim instead of sed-ing out
  // known-noisy names.
  void mark_volatile() { volatile_ = true; }
  bool is_volatile() const { return volatile_; }

 private:
  double value_ = 0.0;
  bool volatile_ = false;
};

// Fixed upper-bound buckets plus an implicit +inf overflow bucket;
// moments (count/mean/min/max/stddev) ride on sim::Accumulator.
class Histogram {
 public:
  // Bounds must be finite and strictly increasing (throws otherwise).
  explicit Histogram(std::vector<double> upper_bounds);

  // Inline: attack.staleness_s observes every cross-core read.
  void observe(double value) {
    ++counts_[bucket(value)];
    acc_.add(value);
  }

  // The bucket observe(value) counts into: std::lower_bound's index over
  // upper_bounds(), for every double (NaN lands in bucket 0, as there).
  // One binade-table lookup and one compare when the bounds have a table;
  // lower_bound itself otherwise.
  std::size_t bucket(double value) const {
    if (binades_.empty()) {
      return static_cast<std::size_t>(
          std::lower_bound(bounds_.begin(), bounds_.end(), value) -
          bounds_.begin());
    }
    // NaN and everything at or below the first bound; then the overflow.
    if (!(value > bounds_.front())) return 0;
    if (value > bounds_.back()) return bounds_.size();
    // A positive normal value here: its biased exponent names its binade.
    const Binade& b =
        binades_[(std::bit_cast<std::uint64_t>(value) >> 52) - first_binade_];
    return b.first + static_cast<std::size_t>(value > b.bound);
  }

  const std::vector<double>& upper_bounds() const { return bounds_; }
  // counts()[i] holds observations <= upper_bounds()[i] (and greater than
  // the previous bound); counts().back() is the overflow bucket.
  const std::vector<std::uint64_t>& counts() const { return counts_; }
  const sim::Accumulator& moments() const { return acc_; }

  // Adds another histogram's bucket counts and moments into this one;
  // the bucket bounds must match exactly (throws otherwise).
  void merge_from(const Histogram& other);

  // Exact-state restore for binary (de)serialization; `counts` must have
  // upper_bounds().size() + 1 entries that add up to `moments.count`
  // (throws otherwise).
  void restore(const std::vector<std::uint64_t>& counts,
               const sim::Accumulator::State& moments);

  // Decade buckets 1e-9 .. 1e3 with a x3 midpoint each — wide enough for
  // every timescale the paper touches (ns hash steps to quarter-hour runs).
  static std::vector<double> default_time_buckets();

 private:
  // One binade [2^e, 2^(e+1)): `first` bounds lie below it, and it holds
  // at most the one bound `bound` (+inf when it holds none), so a value in
  // it belongs to bucket first + (value > bound).
  struct Binade {
    double bound;
    std::size_t first;
  };

  std::vector<double> bounds_;   // finite, strictly increasing
  std::vector<std::uint64_t> counts_;  // bounds_.size() + 1 (overflow)
  // One entry per binade from the first bound's to the last's, built when
  // every bound is a positive normal and no binade holds two; empty
  // otherwise, and bucket() then searches.
  std::vector<Binade> binades_;
  std::uint64_t first_binade_ = 0;  // biased exponent of binades_[0]
  sim::Accumulator acc_;
};

class MetricsRegistry {
 public:
  // Lookup-or-create by name. References stay valid for the registry
  // lifetime (node-based map).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  // Creates with default_time_buckets() on first use.
  Histogram& histogram(const std::string& name);
  // Pre-registers with explicit buckets; throws if the name already exists
  // with different bounds.
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds);
  // Streaming quantile digest (p50/p95/p99/max); unlike histograms these
  // merge permutation-invariantly, so cross-trial aggregation is bit-exact
  // no matter how shards arrive.
  QuantileDigest& digest(const std::string& name);

  // Lookup-or-create through a site id: the same metric the by-name call
  // returns for `name`, which must be the one name `id` is always used
  // with. The first call per id and kind binds a slot through the by-name
  // path, so a metric still appears at its first emission; later calls
  // are one array index and never read `name`.
  Counter& counter(MetricId id, const char* name) {
    Counter* c = counter_slots_.find(id);
    return c != nullptr ? *c : bind_counter(id, name);
  }
  Gauge& gauge(MetricId id, const char* name) {
    Gauge* g = gauge_slots_.find(id);
    return g != nullptr ? *g : bind_gauge(id, name);
  }
  Histogram& histogram(MetricId id, const char* name) {
    Histogram* h = histogram_slots_.find(id);
    return h != nullptr ? *h : bind_histogram(id, name);
  }
  QuantileDigest& digest(MetricId id, const char* name) {
    QuantileDigest* d = digest_slots_.find(id);
    return d != nullptr ? *d : bind_digest(id, name);
  }

  // Read-only lookups; null when the name was never registered.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;
  const QuantileDigest* find_digest(const std::string& name) const;

  // Folds another registry into this one: counters add, gauges take the
  // other's value (last merge wins), histograms add bucket counts and
  // combine moments. Histograms present in both registries must share
  // bucket bounds (throws otherwise). The TrialRunner merges per-trial
  // registries in submission order, so the folded state is bit-identical
  // for any worker count.
  void merge_from(const MetricsRegistry& other);

  // Deterministic snapshot: names sorted, stable field order, same string
  // for the same state no matter the registration order. Pass
  // include_volatile=false for the stable view (volatile gauges omitted)
  // that identity gates diff across jobs counts and cache modes.
  std::string to_json(bool include_volatile = true) const;
  bool write_json(const std::string& path,
                  bool include_volatile = true) const;

  // Exact binary snapshot ("SATNMET1", little-endian, doubles as raw bit
  // patterns): unlike to_json, a save/load round trip restores byte-exact
  // internal state, so campaign workers can persist per-trial registries
  // and the supervisor can merge them across the process boundary with
  // the same bits an in-process merge would produce. save_binary writes
  // crash-safe (temp file + rename). load_merge_binary MERGES the file
  // into this registry (merge_from semantics); load into an empty
  // registry to read verbatim. Returns false with *error set on any I/O
  // or format problem — a truncated or corrupt file never half-applies.
  bool save_binary(const std::string& path, std::string* error) const;
  bool load_merge_binary(const std::string& path, std::string* error);

 private:
  // Id-indexed pointers into one of this registry's maps. A copy starts
  // empty, because the source's pointers would alias the source's maps; a
  // move carries them along with the map nodes they point into.
  template <typename T>
  class SlotTable {
   public:
    SlotTable() = default;
    SlotTable(const SlotTable&) {}
    SlotTable& operator=(const SlotTable&) {
      slots_.reset();
      return *this;
    }
    SlotTable(SlotTable&&) noexcept = default;
    SlotTable& operator=(SlotTable&&) noexcept = default;

    T* find(MetricId id) const {
      const auto i = static_cast<std::size_t>(id);
      return slots_ != nullptr && i < kMaxMetricSites ? slots_[i] : nullptr;
    }
    // `id` must come from next_metric_site.
    T& bind(MetricId id, T& metric) {
      // One allocation per kind, sized for every id next_metric_site can
      // hand out. Growing the table step by step while a trial runs
      // interleaves small frees with the trial's large transient buffers,
      // and glibc then trims and re-faults the heap under them.
      if (slots_ == nullptr) {
        slots_ = std::make_unique<T*[]>(kMaxMetricSites);
      }
      slots_[static_cast<std::size_t>(id)] = &metric;
      return metric;
    }

   private:
    std::unique_ptr<T*[]> slots_;
  };

  Counter& bind_counter(MetricId id, const char* name);
  Gauge& bind_gauge(MetricId id, const char* name);
  Histogram& bind_histogram(MetricId id, const char* name);
  QuantileDigest& bind_digest(MetricId id, const char* name);

  // The maps are the storage (snapshots, merges and SATNMET1 read only
  // them); the slot tables only cache where a site's metric lives.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, QuantileDigest> digests_;
  SlotTable<Counter> counter_slots_;
  SlotTable<Gauge> gauge_slots_;
  SlotTable<Histogram> histogram_slots_;
  SlotTable<QuantileDigest> digest_slots_;
};

// Escapes a string for embedding inside a JSON string literal.
std::string json_escape(const std::string& raw);

// Per-thread registry the macros emit into; null disables metrics. The
// slot is thread-local so parallel trial workers each write into their
// own registry (installed by sim::TrialRunner around every trial) while
// the main thread keeps the session-wide one — no locks on the hot path.
inline MetricsRegistry*& metrics_slot() {
  thread_local MetricsRegistry* registry = nullptr;
  return registry;
}
inline MetricsRegistry* metrics() { return metrics_slot(); }
inline void install_metrics(MetricsRegistry* registry) {
  metrics_slot() = registry;
}

}  // namespace satin::obs

// `name` must be a string literal (`"" name` rejects anything else), so
// a site's id always comes with the same name. The site takes its id on
// its first enabled emission and keeps it in a function-local static.
// The registry is still read at every emission, so a metric lands in
// whatever registry the calling thread has installed at that moment.
#define SATIN_OBS_METRIC_EMIT_(kind, name, call)                  \
  do {                                                            \
    if (auto* satin_obs_m_ = ::satin::obs::metrics()) {           \
      static const ::satin::obs::MetricId satin_obs_id_ =         \
          ::satin::obs::next_metric_site();                       \
      satin_obs_m_->kind(satin_obs_id_, "" name).call;            \
    }                                                             \
  } while (0)

#define SATIN_METRIC_INC(name) SATIN_OBS_METRIC_EMIT_(counter, name, inc())

#define SATIN_METRIC_ADD(name, delta) \
  SATIN_OBS_METRIC_EMIT_(counter, name, \
                         inc(static_cast<std::uint64_t>(delta)))

#define SATIN_METRIC_GAUGE_SET(name, value) \
  SATIN_OBS_METRIC_EMIT_(gauge, name, set(static_cast<double>(value)))

#define SATIN_METRIC_OBSERVE(name, value) \
  SATIN_OBS_METRIC_EMIT_(histogram, name, \
                         observe(static_cast<double>(value)))

#define SATIN_METRIC_DIGEST_OBSERVE(name, value) \
  SATIN_OBS_METRIC_EMIT_(digest, name, observe(static_cast<double>(value)))
