#include "obs/session.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <vector>

#include <sys/stat.h>

#include "sim/engine.h"

namespace satin::obs {

void snapshot_engine_metrics(const sim::Engine& engine,
                             MetricsRegistry& registry, bool include_wall) {
  registry.gauge("engine.events_fired")
      .set(static_cast<double>(engine.events_fired()));
  // Keyed actions run in place of queue events (DESIGN.md §19): with
  // engine.events_fired, the dispatch count of the event-per-round path.
  registry.gauge("engine.keyed_fired")
      .set(static_cast<double>(engine.keyed_fired()));
  // The keyed actions a loop completed in place, in bursts; a subset of
  // engine.keyed_fired.
  registry.gauge("engine.keyed_in_place")
      .set(static_cast<double>(engine.keyed_in_place()));
  registry.gauge("engine.queue_high_water")
      .set(static_cast<double>(engine.queue_high_water()));
  registry.gauge("engine.pending_events")
      .set(static_cast<double>(engine.pending_count()));
  const double popped = static_cast<double>(engine.events_fired() +
                                            engine.cancelled_popped());
  registry.gauge("engine.cancelled_ratio")
      .set(popped > 0.0
               ? static_cast<double>(engine.cancelled_popped()) / popped
               : 0.0);
  // Memory-model gauges (PR 5). All deterministic for a fixed event
  // sequence — schedule order fixes pool recycling and the callback count —
  // so, unlike the wall gauges below, they are safe to snapshot inside
  // parallel trials at any --jobs.
  // Exception: the pool high-water mark depends on how many events are
  // simultaneously live, which an ASan build perturbs via callback
  // storage sizes — volatile so --metrics-stable drops it.
  registry.gauge("engine.pool_high_water")
      .set(static_cast<double>(engine.pool_high_water()));
  registry.gauge("engine.pool_high_water").mark_volatile();
  registry.gauge("engine.pool_slab_grows")
      .set(static_cast<double>(engine.pool_slab_grows()));
  registry.gauge("engine.pool_reuses")
      .set(static_cast<double>(engine.pool_reuses()));
  registry.gauge("engine.cb_inline")
      .set(static_cast<double>(engine.callbacks_inline()));
  // Engine-side queue-depth digest (sampled per dispatch, cheap integer
  // bit ops — no per-event map lookup). Deterministic: depth at each
  // dispatch is fixed by the schedule order.
  registry.digest("engine.queue_depth").merge_from(engine.queue_depth_digest());
  if (!include_wall) return;
  registry.gauge("engine.wall_seconds").set(engine.wall_seconds());
  registry.gauge("engine.wall_seconds").mark_volatile();
  const double sim_s = engine.now().sec();
  registry.gauge("engine.wall_s_per_sim_s")
      .set(sim_s > 0.0 ? engine.wall_seconds() / sim_s : 0.0);
  registry.gauge("engine.wall_s_per_sim_s").mark_volatile();
}

std::optional<unsigned long long> parse_whole_number(const std::string& text,
                                                     unsigned long long min,
                                                     unsigned long long max) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(text.c_str(), &end, 10);
  if (std::isdigit(static_cast<unsigned char>(text[0])) != 0 &&
      *end == '\0' && errno == 0 && n >= min && n <= max) {
    return n;
  }
  return std::nullopt;
}

namespace {

// Every argument whose value a take_flag predicate refused, so that
// reject_unconsumed_args can tell it from an argument no flag matched.
// Flags are taken on the main thread before anything runs.
std::vector<std::string>& refused_args() {
  static std::vector<std::string> refused;
  return refused;
}

}  // namespace

bool reject_unconsumed_args(int argc, char* const* argv, int first) {
  if (first >= argc) return false;
  const char* slash = std::strrchr(argv[0], '/');
  const std::vector<std::string>& refused = refused_args();
  const bool was_refused =
      std::find(refused.begin(), refused.end(), argv[first]) != refused.end();
  std::fprintf(stderr, "%s: %s argument '%s'\n",
               slash != nullptr ? slash + 1 : argv[0],
               was_refused ? "refused" : "unrecognized", argv[first]);
  return true;
}

std::string take_flag(int& argc, char** argv, const char* key,
                      const std::function<bool(const std::string&)>&
                          malformed) {
  const std::string prefix = std::string("--") + key + "=";
  std::string value;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      const std::string candidate = argv[i] + prefix.size();
      if (!malformed || !malformed(candidate)) {
        value = candidate;
        continue;
      }
      refused_args().push_back(argv[i]);
    }
    argv[out++] = argv[i];
  }
  argv[out] = nullptr;
  argc = out;
  return value;
}

std::optional<unsigned long long> take_whole_number(int& argc, char** argv,
                                                    const char* key,
                                                    unsigned long long min,
                                                    unsigned long long max) {
  std::optional<unsigned long long> last;
  take_flag(argc, argv, key, [&](const std::string& text) {
    const std::optional<unsigned long long> n =
        parse_whole_number(text, min, max);
    if (n) {
      last = n;
      return false;
    }
    const char* slash = std::strrchr(argv[0], '/');
    std::fprintf(stderr, "%s: --%s=%s: want a whole number ",
                 slash != nullptr ? slash + 1 : argv[0], key, text.c_str());
    if (max >= static_cast<unsigned long long>(INT_MAX)) {
      std::fprintf(stderr, ">= %llu\n", min);
    } else {
      std::fprintf(stderr, "in [%llu, %llu]\n", min, max);
    }
    return true;
  });
  return last;
}

namespace {

// True, after naming the flag on stderr, when `path` cannot be opened
// for writing. The probe appends nothing and truncates nothing, and
// removes a file it created, so a run refused for another flag leaves no
// empty output behind.
bool unwritable(const char* flag, const std::string& path) {
  struct stat st {};
  const bool existed = ::stat(path.c_str(), &st) == 0;
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: %s=%s cannot be opened for writing: %s\n",
                 flag, path.c_str(), std::strerror(errno));
    return true;
  }
  std::fclose(f);
  if (!existed) std::remove(path.c_str());
  return false;
}

bool malformed_metrics(const std::string& value) {
  return unwritable("--metrics", value);
}

// --flight=path[,ring=N]
bool malformed_flight(const std::string& value) {
  const std::size_t comma = value.find(",ring=");
  if (comma != std::string::npos &&
      !parse_whole_number(value.substr(comma + 6), 0, SIZE_MAX)) {
    std::fprintf(stderr, "obs: --flight=%s: ring= wants a whole number\n",
                 value.c_str());
    return true;
  }
  return unwritable("--flight", value.substr(0, comma));
}

// Strips a bare "--<key>" switch from argv; true when it was present.
bool take_bool_flag(int& argc, char** argv, const char* key) {
  const std::string flag = std::string("--") + key;
  bool present = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) {
      present = true;
      continue;
    }
    argv[out++] = argv[i];
  }
  argv[out] = nullptr;
  argc = out;
  return present;
}

}  // namespace

ObsSession::ObsSession(int& argc, char** argv) {
  metrics_path_ = take_flag(argc, argv, "metrics", malformed_metrics);
  metrics_stable_ = take_bool_flag(argc, argv, "metrics-stable");
  // --flight=path[,ring=N]: path of the binary recording, optionally a
  // ring capacity (keep only the newest N records; 0/absent = spill the
  // full stream to disk in bounded-memory chunks).
  std::string flight_spec = take_flag(argc, argv, "flight", malformed_flight);
  std::size_t flight_ring = 0;
  const std::size_t comma = flight_spec.find(",ring=");
  if (comma != std::string::npos) {
    flight_ring = static_cast<std::size_t>(
        *parse_whole_number(flight_spec.substr(comma + 6), 0, SIZE_MAX));
    flight_spec.resize(comma);
  }
  flight_path_ = flight_spec;
  if (!metrics_path_.empty()) {
    registry_ = std::make_unique<MetricsRegistry>();
    install_metrics(registry_.get());
  }
  if (!flight_path_.empty()) {
    FlightRecorder::Options opts;
    opts.path = flight_path_;
    opts.ring = flight_ring;
    flight_ = std::make_unique<FlightRecorder>(opts);
    if (flight_->failed()) {
      std::fprintf(stderr, "obs: failed to open flight recording %s\n",
                   flight_path_.c_str());
      flight_.reset();
      flight_path_.clear();
    } else {
      install_flight(flight_.get());
    }
  }
}

ObsSession::~ObsSession() { flush(nullptr); }

bool ObsSession::flush(const sim::Engine* engine) {
  if (flushed_) return true;
  flushed_ = true;
  bool ok = true;
  if (registry_ != nullptr) {
    if (engine != nullptr) snapshot_engine_metrics(*engine, *registry_);
    if (metrics() == registry_.get()) install_metrics(nullptr);
    if (!registry_->write_json(metrics_path_,
                               /*include_volatile=*/!metrics_stable_)) {
      std::fprintf(stderr, "obs: failed to write metrics %s\n",
                   metrics_path_.c_str());
      ok = false;
    }
  }
  if (flight_ != nullptr) {
    if (flight() == flight_.get()) install_flight(nullptr);
    if (!flight_->close()) {
      std::fprintf(stderr, "obs: failed to write flight recording %s\n",
                   flight_path_.c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace satin::obs
