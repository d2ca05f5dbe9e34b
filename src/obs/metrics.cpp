#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <utility>


namespace satin::obs {

MetricId next_metric_site() {
  static std::atomic<std::uint32_t> next{0};
  const std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  if (id >= kMaxMetricSites) {
    throw std::length_error("next_metric_site: more than " +
                            std::to_string(kMaxMetricSites) +
                            " SATIN_METRIC_* sites");
  }
  return static_cast<MetricId>(id);
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: no buckets");
  }
  // NaN defeats the sortedness check below, and the binade table needs
  // finite bounds.
  if (!std::all_of(bounds_.begin(), bounds_.end(),
                   [](double b) { return std::isfinite(b); })) {
    throw std::invalid_argument("Histogram: bounds must be finite");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument("Histogram: bounds must strictly increase");
  }
  if (!std::isnormal(bounds_.front()) || bounds_.front() < 0.0) return;
  const auto binade_of = [](double b) {
    return std::bit_cast<std::uint64_t>(b) >> 52;
  };
  first_binade_ = binade_of(bounds_.front());
  binades_.resize(binade_of(bounds_.back()) - first_binade_ + 1);
  std::size_t next = 0;  // bounds below the current binade
  for (std::size_t j = 0; j < binades_.size(); ++j) {
    Binade& b = binades_[j];
    b = {std::numeric_limits<double>::infinity(), next};
    if (binade_of(bounds_[next]) != first_binade_ + j) continue;
    b.bound = bounds_[next++];
    if (next < bounds_.size() &&
        binade_of(bounds_[next]) == first_binade_ + j) {
      binades_.clear();  // two bounds in one binade: search instead
      return;
    }
  }
}

std::vector<double> Histogram::default_time_buckets() {
  std::vector<double> bounds;
  for (int decade = -9; decade <= 3; ++decade) {
    const double base = std::pow(10.0, decade);
    bounds.push_back(base);
    bounds.push_back(3.0 * base);
  }
  return bounds;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, Histogram(Histogram::default_time_buckets()))
             .first;
  }
  return it->second;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, Histogram(std::move(upper_bounds))).first;
    return it->second;
  }
  if (it->second.upper_bounds() != upper_bounds) {
    throw std::logic_error("MetricsRegistry: histogram '" + name +
                           "' already registered with different buckets");
  }
  return it->second;
}

QuantileDigest& MetricsRegistry::digest(const std::string& name) {
  return digests_[name];
}

Counter& MetricsRegistry::bind_counter(MetricId id, const char* name) {
  return counter_slots_.bind(id, counter(name));
}

Gauge& MetricsRegistry::bind_gauge(MetricId id, const char* name) {
  return gauge_slots_.bind(id, gauge(name));
}

Histogram& MetricsRegistry::bind_histogram(MetricId id, const char* name) {
  return histogram_slots_.bind(id, histogram(name));
}

QuantileDigest& MetricsRegistry::bind_digest(MetricId id, const char* name) {
  return digest_slots_.bind(id, digest(name));
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) {
    counters_[name].inc(c.value());
  }
  for (const auto& [name, g] : other.gauges_) {
    Gauge& mine = gauges_[name];
    mine.set(g.value());
    if (g.is_volatile()) mine.mark_volatile();
  }
  for (const auto& [name, d] : other.digests_) {
    digests_[name].merge_from(d);
  }
  for (const auto& [name, h] : other.histograms_) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      it = histograms_.emplace(name, Histogram(h.upper_bounds())).first;
    }
    it->second.merge_from(h);
  }
}

void Histogram::merge_from(const Histogram& other) {
  if (bounds_ != other.bounds_) {
    throw std::logic_error("Histogram::merge_from: mismatched buckets");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  acc_.merge(other.acc_);
}

void Histogram::restore(const std::vector<std::uint64_t>& counts,
                        const sim::Accumulator::State& moments) {
  if (counts.size() != counts_.size()) {
    throw std::invalid_argument("Histogram::restore: bucket count");
  }
  // observe() counts each value in one bucket and in the moments.
  std::uint64_t total = 0;
  bool wrapped = false;
  for (std::uint64_t n : counts) {
    wrapped |= __builtin_add_overflow(total, n, &total);
  }
  if (wrapped || total != moments.count) {
    throw std::invalid_argument(
        "Histogram::restore: moment count does not match the bucket counts");
  }
  counts_ = counts;
  acc_.restore(moments);
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

const QuantileDigest* MetricsRegistry::find_digest(
    const std::string& name) const {
  const auto it = digests_.find(name);
  return it == digests_.end() ? nullptr : &it->second;
}

std::string json_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string format_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

std::string MetricsRegistry::to_json(bool include_volatile) const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": " + std::to_string(c.value());
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!include_volatile && g.is_volatile()) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": " + format_double(g.value());
  }
  out += "\n  },\n  \"digests\": {";
  first = true;
  for (const auto& [name, d] : digests_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": {\"count\": " +
           std::to_string(d.count()) + ", \"min\": " + format_double(d.min()) +
           ", \"p50\": " + format_double(d.p50()) +
           ", \"p95\": " + format_double(d.p95()) +
           ", \"p99\": " + format_double(d.p99()) +
           ", \"max\": " + format_double(d.max()) + "}";
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    const sim::Accumulator& acc = h.moments();
    out += "    \"" + json_escape(name) + "\": {\"count\": " +
           std::to_string(acc.count()) +
           ", \"mean\": " + format_double(acc.mean()) +
           ", \"min\": " + format_double(acc.min()) +
           ", \"max\": " + format_double(acc.max()) +
           ", \"stddev\": " + format_double(acc.stddev()) +
           ", \"buckets\": [";
    const auto& bounds = h.upper_bounds();
    const auto& counts = h.counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i > 0) out += ", ";
      out += "{\"le\": ";
      out += i < bounds.size() ? format_double(bounds[i]) : "\"inf\"";
      out += ", \"n\": " + std::to_string(counts[i]) + "}";
    }
    out += "]}";
  }
  out += "\n  }\n}\n";
  return out;
}

bool MetricsRegistry::write_json(const std::string& path,
                                 bool include_volatile) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string content = to_json(include_volatile);
  const std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool write_ok = written == content.size();
  const bool close_ok = std::fclose(f) == 0;
  return write_ok && close_ok;
}

}  // namespace satin::obs
