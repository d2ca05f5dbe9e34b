#include "obs/session.h"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "secure/digest_cache.h"
#include "sim/engine.h"
#include "sim/parallel.h"

namespace satin::obs {

void snapshot_engine_metrics(const sim::Engine& engine,
                             MetricsRegistry& registry, bool include_wall) {
  registry.gauge("engine.events_fired")
      .set(static_cast<double>(engine.events_fired()));
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
  // sequence — schedule order fixes pool recycling, callback storage and
  // wheel/heap admission — so, unlike the wall gauges below, they are
  // safe to snapshot inside parallel trials at any --jobs.
  // Exception: the pool high-water mark depends on how many events are
  // simultaneously live, which the ASan/obs-off builds perturb via
  // callback storage sizes — volatile so --metrics-stable drops it.
  registry.gauge("engine.pool_high_water")
      .set(static_cast<double>(engine.pool_high_water()));
  registry.gauge("engine.pool_high_water").mark_volatile();
  registry.gauge("engine.pool_slab_grows")
      .set(static_cast<double>(engine.pool_slab_grows()));
  registry.gauge("engine.pool_reuses")
      .set(static_cast<double>(engine.pool_reuses()));
  registry.gauge("engine.cb_inline")
      .set(static_cast<double>(engine.callbacks_inline()));
  registry.gauge("engine.cb_fallback")
      .set(static_cast<double>(engine.callback_fallbacks()));
  registry.gauge("engine.wheel_events")
      .set(static_cast<double>(engine.wheel_scheduled()));
  registry.gauge("engine.heap_events")
      .set(static_cast<double>(engine.heap_scheduled()));
#if SATIN_OBS_ENABLED
  // Engine-side queue-depth digest (sampled per dispatch, cheap integer
  // bit ops — no per-event map lookup). Deterministic: depth at each
  // dispatch is fixed by the schedule order.
  registry.digest("engine.queue_depth").merge_from(engine.queue_depth_digest());
#endif
  if (!include_wall) return;
  registry.gauge("engine.wall_seconds").set(engine.wall_seconds());
  registry.gauge("engine.wall_seconds").mark_volatile();
  const double sim_s = engine.now().sec();
  registry.gauge("engine.wall_s_per_sim_s")
      .set(sim_s > 0.0 ? engine.wall_seconds() / sim_s : 0.0);
  registry.gauge("engine.wall_s_per_sim_s").mark_volatile();
}

namespace {

// Strips "--<key>=<value>" from argv; returns the last value seen.
std::string take_flag(int& argc, char** argv, const char* key) {
  const std::string prefix = std::string("--") + key + "=";
  std::string value;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      value = argv[i] + prefix.size();
      continue;
    }
    argv[out++] = argv[i];
  }
  argv[out] = nullptr;
  argc = out;
  return value;
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

int ObsSession::jobs(int fallback) const {
  if (jobs_ < 0) return fallback;
  if (jobs_ == 0) return sim::TrialRunner::hardware_jobs();
  return jobs_;
}

ObsSession::ObsSession(int& argc, char** argv, std::size_t trace_capacity) {
  trace_path_ = take_flag(argc, argv, "trace");
  metrics_path_ = take_flag(argc, argv, "metrics");
  metrics_stable_ = take_bool_flag(argc, argv, "metrics-stable");
  faults_spec_ = take_flag(argc, argv, "faults");
  // --flight=path[,ring=N]: path of the binary recording, optionally a
  // ring capacity (keep only the newest N records; 0/absent = spill the
  // full stream to disk in bounded-memory chunks).
  std::string flight_spec = take_flag(argc, argv, "flight");
  if (!flight_spec.empty()) {
    const std::size_t comma = flight_spec.find(",ring=");
    if (comma != std::string::npos) {
      flight_ring_ = static_cast<std::size_t>(
          std::strtoull(flight_spec.c_str() + comma + 6, nullptr, 10));
      flight_spec.resize(comma);
    }
    flight_path_ = flight_spec;
  }
  const std::string jobs_value = take_flag(argc, argv, "jobs");
  if (!jobs_value.empty()) {
    // Strict: atoi would turn "four" into 0, i.e. one worker per
    // hardware thread.
    char* end = nullptr;
    errno = 0;
    const long jobs = std::strtol(jobs_value.c_str(), &end, 10);
    if (std::isdigit(static_cast<unsigned char>(jobs_value[0])) != 0 &&
        *end == '\0' && errno == 0 && jobs <= INT_MAX) {
      jobs_ = static_cast<int>(jobs);
    } else {
      std::fprintf(stderr,
                   "obs: --jobs=%s not understood (want a whole number), "
                   "ignoring it\n",
                   jobs_value.c_str());
    }
  }
  const std::string batch_value = take_flag(argc, argv, "batch");
  if (!batch_value.empty()) {
    batch_ = std::atoi(batch_value.c_str());
    if (batch_ < 1) batch_ = -1;  // nonsense value: behave as if absent
  }
  const std::string fused_value = take_flag(argc, argv, "fused");
  if (fused_value == "off") {
    fused_ = false;
  } else if (!fused_value.empty() && fused_value != "on") {
    std::fprintf(stderr,
                 "obs: --fused=%s not understood (want on|off), "
                 "keeping default on\n",
                 fused_value.c_str());
  }
  const std::string cache_value = take_flag(argc, argv, "digest-cache");
  if (!cache_value.empty() && cache_value != "on" && cache_value != "off") {
    std::fprintf(stderr,
                 "obs: --digest-cache=%s not understood (want on|off), "
                 "keeping default on\n",
                 cache_value.c_str());
  }
  // Process-wide default read by every secure::DigestCache constructed
  // after this point (one per Introspector, i.e. per trial — workers
  // inherit the value set here before the pool fans out).
  secure::set_digest_cache_default(cache_value != "off");
  // One flag should yield the full picture: a trace without an explicit
  // metrics path still drops a snapshot next to it.
  if (!trace_path_.empty() && metrics_path_.empty()) {
    metrics_path_ = trace_path_ + ".metrics.json";
  }
  if (!trace_path_.empty()) {
    recorder_ = std::make_unique<TraceRecorder>(trace_capacity);
    install_tracer(recorder_.get());
  }
  if (!metrics_path_.empty()) {
    registry_ = std::make_unique<MetricsRegistry>();
    install_metrics(registry_.get());
  }
  if (!flight_path_.empty()) {
    FlightRecorder::Options opts;
    opts.path = flight_path_;
    opts.ring = flight_ring_;
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
  if (recorder_ != nullptr) {
    if (tracer() == recorder_.get()) install_tracer(nullptr);
    if (!recorder_->write_chrome_json(trace_path_)) {
      std::fprintf(stderr, "obs: failed to write trace %s\n",
                   trace_path_.c_str());
      ok = false;
    }
    if (!recorder_->write_jsonl(trace_path_ + ".jsonl")) {
      std::fprintf(stderr, "obs: failed to write trace %s.jsonl\n",
                   trace_path_.c_str());
      ok = false;
    }
  }
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
