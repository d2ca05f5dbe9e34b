// Harness of the repo benchmark (perfbench/run.py owns seeds, checks and
// reporting; this program only runs the simulator and measures it).
//
//   satin_perfbench setup --workload W --seed N --dir D
//       Process start up to the point where the first trial can run:
//       static init, spec parse + validation, journal open, first
//       Scenario boot. run.py times whole invocations of this mode.
//   satin_perfbench run --workload W --seed N --trials T --dir D
//                       [--repeats R] [--replay K]
//       Runs a campaign of T trials (overhead: T pass pairs) R times
//       untraced (campaign::run_campaign for the duel workloads,
//       sim::TrialRunner for `overhead`) and prints one JSON line of host
//       and simulated measurements. --replay K then replays
//       the first K trials in-process twice — once plain, once wrapped in
//       spans around every public call — checks each replayed record
//       byte-equals the untraced run's, and adds the per-layer metrics.
//
// Every file it writes lands under --dir, which must not exist yet: a
// reused journal would make run_campaign resume instead of re-running.
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/journal.h"
#include "campaign/spec.h"
#include "campaign/supervisor.h"
#include "campaign/trial.h"
#include "campaign/worker.h"
#include "core/satin.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "scenario/experiments.h"
#include "scenario/scenario.h"
#include "secure/hash.h"
#include "sim/parallel.h"
#include "sim/seed_seq.h"
#include "workload/unixbench.h"

namespace {

using namespace satin;
using Clock = std::chrono::steady_clock;

// Closed-loop load: a fixed pool of this many workers, each taking the
// next trial index as soon as its previous trial is journalled. Clamped to
// the host's hardware threads so the pool never oversubscribes.
constexpr int kMaxJobs = 4;

// All seven fault kinds of examples/fault_storm at its tp = 3 s, with the
// windows compressed 3x into the 57 s (one 19-round kernel cycle) each
// storm trial simulates.
// The bit-flip rate is lowered from 0.12: a scan and both its retries
// flipped (p^3) is a benign confirmed alarm, which the storm's output
// check forbids, and at 0.12 that hits about one trial in eight.
constexpr char kStormFaults[] =
    "seed=9,"
    "timer-misfire@2s+10s:p=0.35,"
    "irq-lost@7s+13s:p=0.3,"
    "smc-fail@15s+10s:p=0.25,"
    "timer-drift@23s+13s:p=0.5:drift=800ms,"
    "irq-spurious@32s+7s:p=0.3:period=2s,"
    "bitflip@3s+43s:p=0.04,"
    "core-off@37s+8s:core=3";

// overhead: examples/overhead_study's shape, SATIN under the 12-program
// mini-UnixBench suite, one copy, this window per program. Its tp = 0.8 s
// trips RichOs::on_secure_entry's `completion.pending()` invariant on
// about one platform seed in forty (a segfault in optimized builds), so
// the workload wakes SATIN every 1 s instead.
constexpr double kOverheadTpS = 1.0;
constexpr double kOverheadWindowS = 12.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int bench_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1, std::min(kMaxJobs, hw == 0 ? 1 : static_cast<int>(hw)));
}

std::uint64_t root_seed_for(std::uint64_t seed) {
  return 0x5A7100000ull + seed;
}

bool is_campaign_workload(const std::string& name) {
  return name == "duel" || name == "fleet" || name == "storm";
}

std::string campaign_spec_text(const std::string& workload,
                               std::uint64_t trials, std::uint64_t seed) {
  std::string body;
  // duel and storm trials stop on simulated time, not on a round count,
  // so every trial does about the same work whatever its seed.
  if (workload == "duel") {
    body = "\"satin\": {\"tgoal_s\": 19.0, \"randomize_wake\": true},\n"
           "  \"duel\": {\"rounds_target\": 1000000, "
           "\"max_sim_seconds\": 38.0}";
  } else if (workload == "fleet") {
    body = "\"satin\": {\"tgoal_s\": 1.9, \"randomize_wake\": true},\n"
           "  \"duel\": {\"rounds_target\": 4}";
  } else if (workload == "storm") {
    body = std::string(
               "\"satin\": {\"tgoal_s\": 57.0, \"randomize_wake\": true,\n"
               "            \"resilience\": {\"watchdog\": true, "
               "\"max_scan_retries\": 2, \"adapt_offline\": true}},\n"
               "  \"duel\": {\"rounds_target\": 1000000, "
               "\"max_sim_seconds\": 57.0},\n"
               "  \"faults\": \"") +
           kStormFaults + "\",\n  \"faults_reseed\": true";
  } else {
    throw std::invalid_argument("no campaign spec for workload '" + workload +
                                "'");
  }
  char head[160];
  std::snprintf(head, sizeof(head),
                "{\n  \"name\": \"perfbench-%s\",\n  \"trials\": %" PRIu64
                ",\n  \"root_seed\": %" PRIu64 ",\n  \"jobs\": %d,\n  ",
                workload.c_str(), trials, root_seed_for(seed), bench_jobs());
  return head + body + "\n}\n";
}

// ---------------------------------------------------------------- output

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Flat JSON object writer: insertion-ordered "key": value pairs.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, fmt(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, quote(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + quote(key) + ": " + json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ------------------------------------------------------------ host usage

struct Usage {
  double cpu_s = 0.0;       // user + sys, this process and reaped children
  double self_rss_mb = 0.0;
  double child_rss_mb = 0.0;  // largest reaped child
};

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

Usage read_usage() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  Usage u;
  u.cpu_s = tv_seconds(self.ru_utime) + tv_seconds(self.ru_stime) +
            tv_seconds(children.ru_utime) + tv_seconds(children.ru_stime);
  u.self_rss_mb = static_cast<double>(self.ru_maxrss) / 1024.0;
  u.child_rss_mb = static_cast<double>(children.ru_maxrss) / 1024.0;
  return u;
}

// ----------------------------------------------------------------- spans

// One traced call: [start, end] in seconds since the replay began, the
// span that contains it (-1 = none) and the trial it belongs to.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  std::uint64_t trial = 0;
};

class SpanLog {
 public:
  SpanLog() : t0_(Clock::now()) {}

  int open(const char* name, std::uint64_t trial) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, now(), 0.0, parent, trial});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Durations of every span called `name`, in recording order.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.end - s.start);
    }
    return out;
  }

  // Self time per span name: a span's duration minus its children's.
  std::map<std::string, double> self_times() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
    }
    return out;
  }

  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": %s, \"start\": %.9f, \"end\": "
                   "%.9f, \"parent\": %d, \"trial\": %" PRIu64 "}\n",
                   i, quote(s.name).c_str(), s.start, s.end, s.parent,
                   s.trial);
    }
    return std::fclose(f) == 0;
  }

 private:
  double now() const { return seconds_since(t0_); }

  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t trial)
      : log_(log), id_(log != nullptr ? log->open(name, trial) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double sum_of(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

// Quantile q of a registry histogram, which keeps bucket counts rather
// than samples: linear within the bucket holding it, whose edges are
// clamped to the observed min and max.
double histogram_quantile(const obs::Histogram* h, double q) {
  if (h == nullptr || h->moments().count() == 0) return 0.0;
  const double target = q * static_cast<double>(h->moments().count());
  const std::vector<double>& bounds = h->upper_bounds();
  double seen = 0.0;
  for (std::size_t i = 0; i < h->counts().size(); ++i) {
    const double in_bucket = static_cast<double>(h->counts()[i]);
    if (in_bucket > 0.0 && seen + in_bucket >= target) {
      const double lo =
          std::max(i == 0 ? 0.0 : bounds[i - 1], h->moments().min());
      const double hi = std::min(
          i < bounds.size() ? bounds[i] : h->moments().max(),
          h->moments().max());
      return lo + (hi - lo) * (target - seen) / in_bucket;
    }
    seen += in_bucket;
  }
  return h->moments().max();
}

// ---------------------------------------------------- registry accessors

double counter(const obs::MetricsRegistry& r, const char* name) {
  const obs::Counter* c = r.find_counter(name);
  return c != nullptr ? static_cast<double>(c->value()) : 0.0;
}

double gauge(const obs::MetricsRegistry& r, const char* name) {
  const obs::Gauge* g = r.find_gauge(name);
  return g != nullptr ? g->value() : 0.0;
}

double digest_quantile(const obs::MetricsRegistry& r, const char* name,
                       double q) {
  const obs::QuantileDigest* d = r.find_digest(name);
  return d != nullptr && d->count() > 0 ? d->quantile(q) : 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ------------------------------------------------------ campaign trials

// The derivations run_campaign_trial() applies to trial `index`.
struct TrialInputs {
  std::uint64_t seed = 0;
  scenario::ScenarioConfig scenario;
  std::string faults;
};

TrialInputs trial_inputs(const campaign::CampaignSpec& spec,
                         std::uint64_t index) {
  TrialInputs in;
  in.seed = sim::TrialSeedSeq(spec.root_seed).seed_for(index);
  in.scenario = spec.scenario;
  if (!(spec.pin_first_platform_seed && index == 0)) {
    in.scenario.platform.seed = in.seed;
  }
  if (spec.batch > 1) in.scenario.platform.draw_mode = sim::DrawMode::kBatched;
  in.faults = spec.faults;
  if (spec.faults_reseed && !in.faults.empty()) {
    fault::FaultPlan plan = fault::FaultPlan::parse(in.faults);
    plan.seed ^= in.seed;
    in.faults = plan.to_string();
  }
  return in;
}

struct TracedTrial {
  std::string record;
  double sim_seconds = 0.0;      // engine time at the end of the trial
  double advanced_sim_s = 0.0;   // simulated time covered by advance()
  double advance_s = 0.0;        // host time inside advance()
};

// One campaign trial, call by call, exactly as run_campaign_trial() and
// the campaign worker compose it, with a span around each public call.
TracedTrial traced_campaign_trial(const campaign::CampaignSpec& spec,
                                  std::uint64_t index, SpanLog& log,
                                  obs::MetricsRegistry& registry,
                                  campaign::CampaignJournal& journal,
                                  const std::string& artifact_dir) {
  TracedTrial out;
  campaign::TrialResult result;
  {
    ScopedSpan whole(&log, "scenario.trial", index);
    const TrialInputs in = trial_inputs(spec, index);
    sim::TrialObsScope sinks(&registry, nullptr, nullptr);
    std::unique_ptr<scenario::Scenario> system;
    {
      ScopedSpan s(&log, "scenario.boot", index);
      system = std::make_unique<scenario::Scenario>(in.scenario);
    }
    std::unique_ptr<fault::FaultInjector> injector;
    {
      ScopedSpan s(&log, "fault.install_from_spec", index);
      injector = fault::install_from_spec(system->platform(), in.faults);
    }
    std::unique_ptr<scenario::DuelTrial> duel;
    {
      ScopedSpan s(&log, "scenario.duel_setup", index);
      duel = std::make_unique<scenario::DuelTrial>(*system, spec.duel);
    }
    const double advance_from = system->now().sec();
    while (!duel->done()) {
      const auto t0 = Clock::now();
      {
        ScopedSpan s(&log, "scenario.advance", index);
        duel->advance(sim::Duration::from_sec(1));
      }
      out.advance_s += seconds_since(t0);
    }
    out.advanced_sim_s = system->now().sec() - advance_from;
    {
      ScopedSpan s(&log, "scenario.finish", index);
      result.report = duel->finish();
    }
    result.index = index;
    result.seed = in.seed;
    result.faults_injected =
        injector != nullptr ? injector->injected_total() : 0;
    {
      ScopedSpan s(&log, "obs.snapshot_engine_metrics", index);
      obs::snapshot_engine_metrics(system->engine(), registry,
                                   /*include_wall=*/false);
    }
    out.sim_seconds = system->now().sec();
  }
  {
    ScopedSpan s(&log, "obs.metrics_save", index);
    std::string error;
    if (!registry.save_binary(
            campaign::trial_metrics_path(artifact_dir, index), &error)) {
      throw std::runtime_error("metrics save: " + error);
    }
  }
  {
    ScopedSpan s(&log, "campaign.record_codec", index);
    out.record = campaign::encode_trial_record(result);
    campaign::TrialResult back;
    if (!campaign::decode_trial_record(out.record, back)) {
      throw std::runtime_error("record does not decode");
    }
  }
  {
    ScopedSpan s(&log, "campaign.journal_append", index);
    if (!journal.append(result)) throw std::runtime_error("journal append");
  }
  return out;
}

// Journal lines keyed by trial index ("R i=<n> ...").
std::map<std::uint64_t, std::string> journal_records(const std::string& path) {
  std::map<std::uint64_t, std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 4, "R i=") != 0) continue;
    out.emplace(std::strtoull(line.c_str() + 4, nullptr, 10), line);
  }
  return out;
}

// ------------------------------------------------------ overhead trials

struct OverheadPass {
  std::vector<workload::UnixBenchHarness::Result> results;
  double sim_seconds = 0.0;
  double secure_seconds = 0.0;  // summed over cores
  int cores = 0;
};

// One mini-UnixBench pass (overhead_study shape): SATIN self-activating
// or idle beside the suite. `log` null = untraced.
OverheadPass overhead_pass(std::uint64_t platform_seed, bool with_satin,
                           SpanLog* log, std::uint64_t trial) {
  ScopedSpan whole(log, "scenario.trial", trial);
  scenario::ScenarioConfig config;
  config.platform.seed = platform_seed;
  std::unique_ptr<scenario::Scenario> system;
  {
    ScopedSpan s(log, "scenario.boot", trial);
    system = std::make_unique<scenario::Scenario>(config);
  }
  core::SatinConfig satin_config;
  satin_config.tp_s = kOverheadTpS;
  std::unique_ptr<core::Satin> satin;
  {
    ScopedSpan s(log, "core.satin_start", trial);
    satin = std::make_unique<core::Satin>(system->platform(), system->kernel(),
                                          system->tsp(), satin_config);
    if (with_satin) satin->start();
  }
  workload::UnixBenchHarness harness(system->os());
  OverheadPass out;
  {
    ScopedSpan s(log, "workload.run_suite", trial);
    out.results =
        harness.run_suite(sim::Duration::from_sec_f(kOverheadWindowS), 1);
  }
  if (auto* registry = obs::metrics()) {
    ScopedSpan s(log, "obs.snapshot_engine_metrics", trial);
    obs::snapshot_engine_metrics(system->engine(), *registry,
                                 /*include_wall=*/false);
  }
  out.sim_seconds = system->now().sec();
  out.cores = system->platform().num_cores();
  for (int c = 0; c < out.cores; ++c) {
    out.secure_seconds += system->platform().core(c).secure_time_total().sec();
  }
  return out;
}

std::string pass_record(const OverheadPass& p) {
  std::string out;
  char buf[96];
  for (const auto& r : p.results) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &r.score, sizeof(bits));
    std::snprintf(buf, sizeof(buf), "%s=%016" PRIx64 ";", r.name.c_str(),
                  bits);
    out += buf;
  }
  return out;
}

// ------------------------------------------------------------ per-layer

// Engine self-metrics are gauges, which MetricsRegistry::merge_from
// overwrites rather than adds, so they are summed trial by trial here.
struct EngineTotals {
  double events = 0.0;
  double wheel = 0.0;
  double heap = 0.0;
  double cb_fallback = 0.0;
  double queue_high_water = 0.0;

  void add(const obs::MetricsRegistry& r) {
    events += gauge(r, "engine.events_fired");
    wheel += gauge(r, "engine.wheel_events");
    heap += gauge(r, "engine.heap_events");
    cb_fallback += gauge(r, "engine.cb_fallback");
    queue_high_water =
        std::max(queue_high_water, gauge(r, "engine.queue_high_water"));
  }
};

// Merged per-trial registries folded into ratios, per-trial means and
// per-sim-s rates. `sim_seconds` is the simulated time they cover.
void add_count_layers(JsonObject& layers, const obs::MetricsRegistry& r,
                      const EngineTotals& engine, double trials,
                      double sim_seconds) {
  layers.num("sim.events_per_trial", ratio(engine.events, trials))
      .num("sim.queue_high_water", engine.queue_high_water)
      .num("sim.heap_event_share",
           ratio(engine.heap, engine.heap + engine.wheel))
      .num("sim.cb_fallback", ratio(engine.cb_fallback, trials));

  const obs::Histogram* sw = r.find_histogram("hw.switch_s");
  const obs::Histogram* stay = r.find_histogram("hw.secure_stay_s");
  layers.num("hw.world_switches", ratio(counter(r, "hw.world_switches"),
                                        sim_seconds))
      .num("hw.secure_irqs", ratio(counter(r, "hw.secure_irqs"), sim_seconds))
      .num("hw.switch_s", sw != nullptr ? sw->moments().mean() : 0.0)
      .num("hw.secure_stay_s.p50", histogram_quantile(stay, 0.50))
      .num("hw.secure_stay_s.p99", histogram_quantile(stay, 0.99));

  layers.num("os.ticks", ratio(counter(r, "os.ticks"), sim_seconds))
      .num("os.context_switches",
           ratio(counter(r, "os.context_switches"), sim_seconds));

  const double hits = counter(r, "digest_cache.hits");
  const double misses = counter(r, "digest_cache.misses");
  layers
      .num("secure.bytes_hashed_per_trial",
           ratio(counter(r, "digest_cache.bytes_hashed"), trials))
      .num("secure.cache_hit_ratio", ratio(hits, hits + misses))
      .num("secure.bypass_share", ratio(counter(r, "digest_cache.bypasses"),
                                        counter(r, "introspect.scans")))
      .num("secure.scan_s.p50", digest_quantile(r, "introspect.scan_s", 0.50))
      .num("secure.scan_s.p99", digest_quantile(r, "introspect.scan_s", 0.99));

  layers.num("core.rounds", ratio(counter(r, "satin.rounds"), trials))
      .num("core.alarms", ratio(counter(r, "integrity.alarms"), trials))
      .num("core.transient_alarms",
           ratio(counter(r, "satin.transient_alarms"), trials))
      .num("core.scan_retries", ratio(counter(r, "satin.retries"), trials))
      .num("core.watchdog_fires",
           ratio(counter(r, "satin.watchdog_fires"), trials))
      .num("core.detection_lag_s.p50",
           digest_quantile(r, "satin.detection_lag_s", 0.50))
      .num("core.detection_lag_s.p99",
           digest_quantile(r, "satin.detection_lag_s", 0.99));

  layers
      .num("attack.probe_rounds",
           ratio(counter(r, "attack.probe_rounds"), sim_seconds))
      .num("attack.evasions", ratio(counter(r, "attack.evasions"), trials))
      .num("attack.rearms", ratio(counter(r, "attack.rearms"), trials))
      .num("attack.staleness_s.p99",
           histogram_quantile(r.find_histogram("attack.staleness_s"), 0.99));

  layers.num("fault.injected", ratio(counter(r, "fault.injected"), trials))
      .num("fault.bits_flipped",
           ratio(counter(r, "fault.bits_flipped"), trials));
}

void add_timing(JsonObject& layers, const std::string& name,
                const std::vector<double>& samples) {
  layers.num(name + ".p50", quantile(samples, 0.50))
      .num(name + ".p90", quantile(samples, 0.90))
      .num(name + ".n", static_cast<double>(samples.size()));
}

std::string span_table(const SpanLog& log) {
  std::map<std::string, std::pair<std::size_t, double>> totals;
  for (const Span& s : log.spans()) {
    auto& t = totals[s.name];
    ++t.first;
    t.second += s.end - s.start;
  }
  const std::map<std::string, double> self = log.self_times();
  std::string out = "[";
  for (const auto& [name, t] : totals) {
    if (out.size() > 1) out += ", ";
    out += JsonObject()
               .str("name", name)
               .num("calls", static_cast<double>(t.first))
               .num("total_s", t.second)
               .num("self_s", self.at(name))
               .text();
  }
  return out + "]";
}

// Timed secure::hash_bytes over the booted kernel image, GB/s.
double hash_gbps() {
  scenario::Scenario system;
  const std::vector<std::uint8_t>& image = system.kernel().bytes();
  std::vector<double> rates;
  std::uint64_t sink = 0;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    sink ^= secure::hash_bytes(secure::HashKind::kDjb2, image);
    rates.push_back(static_cast<double>(image.size()) / seconds_since(t0) /
                    1e9);
  }
  if (sink == 0x5A71) std::fputc(' ', stderr);  // keep the hashes live
  return quantile(rates, 0.5);
}

// Timed parse_campaign_spec over `text`.
std::vector<double> spec_parse_samples(const std::string& text) {
  std::vector<double> samples;
  for (int i = 0; i < 200; ++i) {
    const auto t0 = Clock::now();
    const campaign::CampaignSpec spec =
        campaign::parse_campaign_spec(text, "perfbench");
    samples.push_back(seconds_since(t0));
    if (spec.trials == 0) throw std::logic_error("spec lost its trials");
  }
  return samples;
}

// ------------------------------------------------------------- commands

struct Args {
  std::string command;
  std::string workload;
  std::string dir;
  std::uint64_t seed = 0;
  std::uint64_t trials = 0;
  std::uint64_t replay = 0;
  std::uint64_t repeats = 1;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: satin_perfbench setup|run");
  Args a;
  a.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--dir") {
      a.dir = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--trials") {
      a.trials = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--replay") {
      a.replay = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--repeats") {
      a.repeats = std::max<std::uint64_t>(
          1, std::strtoull(value.c_str(), nullptr, 10));
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (a.workload != "overhead" && !is_campaign_workload(a.workload)) {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  if (a.dir.empty()) throw std::invalid_argument("--dir is required");
  if (::mkdir(a.dir.c_str(), 0777) != 0) {
    throw std::invalid_argument(a.dir + ": must be a fresh directory");
  }
  return a;
}

int command_setup(const Args& a) {
  if (is_campaign_workload(a.workload)) {
    const campaign::CampaignSpec spec = campaign::parse_campaign_spec(
        campaign_spec_text(a.workload, 1, a.seed), "perfbench");
    campaign::CampaignJournal journal;
    std::string error;
    if (!journal.open(a.dir + "/journal", spec, &error)) {
      throw std::runtime_error(error);
    }
    const scenario::Scenario first(trial_inputs(spec, 0).scenario);
  } else {
    scenario::ScenarioConfig config;
    config.platform.seed = sim::TrialSeedSeq(root_seed_for(a.seed)).seed_for(0);
    const scenario::Scenario first(config);
  }
  std::printf("{\"ready\": true}\n");
  return 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (double v : values) out += (out.size() > 1 ? ", " : "") + fmt(v);
  return out + "]";
}

int run_campaign_workload(const Args& a) {
  const std::string text = campaign_spec_text(a.workload, a.trials, a.seed);
  const campaign::CampaignSpec spec =
      campaign::parse_campaign_spec(text, "perfbench");
  campaign::CampaignOptions options;
  options.jobs = bench_jobs();

  // The same campaign `repeats` times, each into a fresh journal: the
  // host timings of the repeats give run.py a median, and every repeat
  // must write byte-identical stats.
  std::vector<double> wall_s, cpu_s;
  std::uint64_t completed = 0, resumed = 0, failed = 0;
  bool ok = true, identical = true;
  std::string error_text;
  std::string first_stats;
  campaign::CampaignOutcome outcome;
  for (std::uint64_t r = 0; r < a.repeats; ++r) {
    const std::string dir = a.dir + "/repeat" + std::to_string(r);
    ::mkdir(dir.c_str(), 0777);
    options.journal_path = dir + "/journal";
    options.stats_path = dir + "/stats.json";
    const Usage before = read_usage();
    const auto t0 = Clock::now();
    outcome = campaign::run_campaign(spec, options);
    wall_s.push_back(seconds_since(t0));
    cpu_s.push_back(read_usage().cpu_s - before.cpu_s);
    completed += outcome.completed;
    resumed += outcome.resumed;
    failed += outcome.failed_trials.size();
    if (!outcome.ok) {
      ok = false;
      error_text = outcome.error;
    }
    const std::string stats = read_file(options.stats_path);
    if (r == 0) first_stats = stats;
    identical = identical && stats == first_stats;
  }
  // Everything below reads the first repeat.
  options.journal_path = a.dir + "/repeat0/journal";
  const Usage usage = read_usage();

  JsonObject out;
  out.str("workload", a.workload)
      .num("trials", static_cast<double>(spec.trials * a.repeats))
      .num("completed", static_cast<double>(completed))
      .num("resumed", static_cast<double>(resumed))
      .num("failed", static_cast<double>(failed))
      .boolean("ok", ok)
      .str("error", error_text)
      .boolean("repeats_identical", identical)
      .num("jobs", options.jobs)
      .num("trials_per_repeat", static_cast<double>(spec.trials))
      .raw("wall_s", json_array(wall_s))
      .raw("cpu_s", json_array(cpu_s))
      .num("peak_rss_mb", usage.self_rss_mb + options.jobs * usage.child_rss_mb)
      .str("stats_path", a.dir + "/repeat0/stats.json");

  // Simulated outcome over the whole campaign, from the journal and the
  // per-trial metrics artifacts the workers persisted.
  campaign::CampaignJournal journal;
  std::string error;
  if (!journal.open(options.journal_path, spec, &error)) {
    throw std::runtime_error(error);
  }
  obs::MetricsRegistry merged;
  double rounds = 0, tar = 0, taa = 0, benign = 0, fp = 0, fn = 0;
  double always = 0, sim_seconds = 0, gap_sum = 0, gap_n = 0, bytes = 0;
  for (const auto& [index, r] : journal.completed()) {
    const scenario::DuelReport& d = r.report;
    rounds += static_cast<double>(d.rounds);
    tar += static_cast<double>(d.target_area_rounds);
    taa += static_cast<double>(d.target_area_alarms);
    benign += static_cast<double>(d.benign_confirmed_alarms);
    fp += static_cast<double>(d.false_positives);
    fn += static_cast<double>(d.false_negatives);
    if (d.satin_always_caught()) ++always;
    sim_seconds += d.sim_seconds;
    if (d.avg_target_gap_s > 0.0) {
      gap_sum += d.avg_target_gap_s;
      ++gap_n;
    }
    const std::string path =
        campaign::trial_metrics_path(options.journal_path + ".d", index);
    if (!merged.load_merge_binary(path, &error)) {
      throw std::runtime_error(error);
    }
    struct stat st{};
    if (::stat(path.c_str(), &st) == 0) bytes += static_cast<double>(st.st_size);
  }
  const obs::Histogram* stays = merged.find_histogram("hw.secure_stay_s");
  const double cores =
      spec.scenario.platform.num_little + spec.scenario.platform.num_big;
  out.raw("sim", JsonObject()
                     .num("detection_rate", ratio(taa, tar))
                     .num("false_alarm_rate", ratio(benign, rounds))
                     .num("secure_share",
                          ratio(stays != nullptr ? stays->moments().sum() : 0.0,
                                sim_seconds * cores))
                     .num("avg_target_gap_s", ratio(gap_sum, gap_n))
                     .num("rounds", rounds)
                     .num("target_area_rounds", tar)
                     .num("target_area_alarms", taa)
                     .num("benign_confirmed_alarms", benign)
                     .num("false_positives", fp)
                     .num("false_negatives", fn)
                     .num("always_caught_trials", always)
                     .text());

  if (a.replay == 0) {
    std::printf("%s\n", out.text().c_str());
    return 0;
  }

  // Replay: each of the first K trials in-process, plain then traced.
  const std::uint64_t k = std::min(a.replay, spec.trials);
  const std::map<std::uint64_t, std::string> records =
      journal_records(options.journal_path);
  const std::string replay_dir = a.dir + "/replay";
  ::mkdir(replay_dir.c_str(), 0777);
  campaign::CampaignJournal replay_journal;
  if (!replay_journal.open(replay_dir + "/journal", spec, &error)) {
    throw std::runtime_error(error);
  }
  SpanLog log;
  obs::MetricsRegistry counts;
  EngineTotals engine;
  std::vector<double> plain_s, traced_s, advance_rate, ns_per_event;
  double traced_sim_s = 0.0;
  std::string mismatch;
  for (std::uint64_t i = 0; i < k; ++i) {
    {
      obs::MetricsRegistry registry;
      sim::TrialObsScope sinks(&registry, nullptr, nullptr);
      const auto p0 = Clock::now();
      const campaign::TrialResult plain =
          campaign::run_campaign_trial(spec, i);
      plain_s.push_back(seconds_since(p0));
      if (mismatch.empty() &&
          campaign::encode_trial_record(plain) != records.at(i)) {
        mismatch = "plain replay of trial " + std::to_string(i);
      }
    }
    obs::MetricsRegistry registry;
    const auto t0 = Clock::now();
    const TracedTrial t = traced_campaign_trial(spec, i, log, registry,
                                                replay_journal, replay_dir);
    traced_s.push_back(seconds_since(t0));
    if (mismatch.empty() && t.record != records.at(i)) {
      mismatch = "traced replay of trial " + std::to_string(i);
    }
    counts.merge_from(registry);
    engine.add(registry);
    traced_sim_s += t.sim_seconds;
    advance_rate.push_back(ratio(t.advance_s, t.advanced_sim_s));
    ns_per_event.push_back(
        ratio(t.advance_s * 1e9, gauge(registry, "engine.events_fired")));
  }
  log.write_jsonl(a.dir + "/spans.jsonl");

  const double cpu_per_trial =
      ratio(quantile(cpu_s, 0.5), static_cast<double>(spec.trials));
  JsonObject layers;
  add_timing(layers, "campaign.spec_parse_s", spec_parse_samples(text));
  add_timing(layers, "campaign.journal_append_s",
             log.durations("campaign.journal_append"));
  add_timing(layers, "campaign.record_codec_s",
             log.durations("campaign.record_codec"));
  layers
      .num("campaign.overhead_s_per_trial",
           cpu_per_trial - quantile(plain_s, 0.5))
      .num("campaign.artifact_bytes_per_trial",
           ratio(bytes, static_cast<double>(spec.trials)))
      .num("campaign.workers_spawned",
           static_cast<double>(outcome.workers_spawned))
      .num("campaign.retries", static_cast<double>(outcome.retries))
      .num("campaign.worker_crashes",
           static_cast<double>(outcome.worker_crashes));
  add_timing(layers, "scenario.boot_s", log.durations("scenario.boot"));
  add_timing(layers, "scenario.duel_setup_s",
             log.durations("scenario.duel_setup"));
  add_timing(layers, "scenario.advance_s_per_sim_s", advance_rate);
  add_timing(layers, "scenario.finish_s", log.durations("scenario.finish"));
  add_timing(layers, "scenario.trial_s", log.durations("scenario.trial"));
  layers.num("sim.ns_per_event", quantile(ns_per_event, 0.5));
  add_count_layers(layers, counts, engine, static_cast<double>(k),
                   traced_sim_s);
  layers.num("secure.hash_gbps", hash_gbps());
  add_timing(layers, "obs.metrics_save_s", log.durations("obs.metrics_save"));
  layers.num("obs.tracing_overhead",
             ratio(sum_of(traced_s), sum_of(plain_s)));
  // The duel workloads run no UnixBench: time one short pass as a probe.
  std::vector<double> suite_s;
  for (std::uint64_t i = 0; i < 3; ++i) {
    scenario::Scenario system;
    workload::UnixBenchHarness harness(system.os());
    const auto s0 = Clock::now();
    harness.run_suite(sim::Duration::from_ms(100), 1);
    suite_s.push_back(seconds_since(s0));
  }
  add_timing(layers, "workload.run_suite_s", suite_s);
  layers.num("workload.iterations", 0.0);

  out.raw("replay", JsonObject()
                        .num("trials", static_cast<double>(k))
                        .boolean("records_match", mismatch.empty())
                        .str("mismatch", mismatch)
                        .text())
      .raw("layers", layers.text())
      .raw("spans", span_table(log));
  std::printf("%s\n", out.text().c_str());
  return 0;
}

int run_overhead_workload(const Args& a) {
  const std::uint64_t pairs = a.trials;
  const sim::TrialSeedSeq seeds(root_seed_for(a.seed));
  sim::TrialRunnerOptions options;
  options.jobs = bench_jobs();
  options.root_seed = root_seed_for(a.seed);
  sim::TrialRunner runner(options);

  // Trial 2p is pair p without SATIN, 2p + 1 the same platform with it;
  // the whole set runs `repeats` times and must repeat bit for bit.
  std::vector<double> wall_s, cpu_s;
  std::vector<OverheadPass> passes;
  bool identical = true;
  for (std::uint64_t r = 0; r < a.repeats; ++r) {
    const Usage before = read_usage();
    const auto t0 = Clock::now();
    std::vector<OverheadPass> run = runner.run_collect(
        static_cast<std::size_t>(2 * pairs),
        [&seeds](const sim::TrialContext& ctx) {
          return overhead_pass(seeds.seed_for(ctx.index / 2),
                               ctx.index % 2 == 1, nullptr, ctx.index);
        });
    wall_s.push_back(seconds_since(t0));
    cpu_s.push_back(read_usage().cpu_s - before.cpu_s);
    if (r == 0) {
      passes = std::move(run);
      continue;
    }
    for (std::size_t i = 0; i < run.size(); ++i) {
      identical = identical && pass_record(run[i]) == pass_record(passes[i]);
    }
  }

  double overhead_sum = 0.0, secure_s = 0.0, satin_core_s = 0.0;
  std::string aggregate = "[";
  for (std::uint64_t p = 0; p < pairs; ++p) {
    const OverheadPass& base = passes[2 * p];
    const OverheadPass& with = passes[2 * p + 1];
    const double pct = 100.0 * workload::mean_degradation(
                                   workload::compare_runs(base.results,
                                                          with.results));
    overhead_sum += pct;
    secure_s += with.secure_seconds;
    satin_core_s += with.sim_seconds * with.cores;
    aggregate += (p == 0 ? "" : ", ") + fmt(pct);
  }
  aggregate += "]";

  JsonObject out;
  out.str("workload", a.workload)
      .num("trials", static_cast<double>(pairs * a.repeats))
      .num("completed", static_cast<double>(pairs * a.repeats))
      .num("resumed", 0)
      .num("failed", 0)
      .boolean("ok", true)
      .str("error", "")
      .boolean("repeats_identical", identical)
      .num("jobs", options.jobs)
      .num("trials_per_repeat", static_cast<double>(pairs))
      .raw("wall_s", json_array(wall_s))
      .raw("cpu_s", json_array(cpu_s))
      .num("peak_rss_mb", read_usage().self_rss_mb)
      .raw("sim", JsonObject()
                      .num("overhead_pct", ratio(overhead_sum,
                                                 static_cast<double>(pairs)))
                      .num("secure_share", ratio(secure_s, satin_core_s))
                      .raw("pair_overhead_pct", aggregate)
                      .text());

  if (a.replay == 0) {
    std::printf("%s\n", out.text().c_str());
    return 0;
  }

  const std::uint64_t k = std::min(a.replay, pairs);
  SpanLog log;
  obs::MetricsRegistry counts;
  EngineTotals engine;
  std::vector<double> plain_s, traced_s, save_s;
  double traced_sim_s = 0.0, iterations = 0.0;
  std::string mismatch;
  for (std::uint64_t i = 0; i < 2 * k; ++i) {
    const std::uint64_t platform_seed = seeds.seed_for(i / 2);
    const bool with_satin = i % 2 == 1;
    const auto p0 = Clock::now();
    const OverheadPass plain = overhead_pass(platform_seed, with_satin,
                                             nullptr, i);
    plain_s.push_back(seconds_since(p0));
    obs::MetricsRegistry registry;
    OverheadPass traced;
    {
      sim::TrialObsScope sinks(&registry, nullptr, nullptr);
      const auto t0 = Clock::now();
      traced = overhead_pass(platform_seed, with_satin, &log, i);
      traced_s.push_back(seconds_since(t0));
    }
    {
      ScopedSpan s(&log, "obs.metrics_save", i);
      std::string error;
      const auto s0 = Clock::now();
      if (!registry.save_binary(a.dir + "/pass_" + std::to_string(i) + ".met",
                                &error)) {
        throw std::runtime_error(error);
      }
      save_s.push_back(seconds_since(s0));
    }
    const std::string expect = pass_record(passes[i]);
    if (mismatch.empty() && (pass_record(plain) != expect ||
                             pass_record(traced) != expect)) {
      mismatch = "replay of pass " + std::to_string(i);
    }
    counts.merge_from(registry);
    engine.add(registry);
    traced_sim_s += traced.sim_seconds;
    for (const auto& r : traced.results) iterations += r.score * kOverheadWindowS;
  }
  log.write_jsonl(a.dir + "/spans.jsonl");

  // The overhead trials never touch the campaign runtime or a duel: time
  // those layers on a short probe campaign of fleet-sized duels.
  const std::string probe_text = campaign_spec_text("fleet", 4, a.seed);
  const campaign::CampaignSpec probe_spec =
      campaign::parse_campaign_spec(probe_text, "perfbench");
  const std::string probe_dir = a.dir + "/probe";
  ::mkdir(probe_dir.c_str(), 0777);
  campaign::CampaignJournal probe_journal;
  std::string error;
  if (!probe_journal.open(probe_dir + "/journal", probe_spec, &error)) {
    throw std::runtime_error(error);
  }
  SpanLog probe_log;
  std::vector<double> advance_rate;
  for (std::uint64_t i = 0; i < probe_spec.trials; ++i) {
    obs::MetricsRegistry registry;
    const TracedTrial t = traced_campaign_trial(
        probe_spec, i, probe_log, registry, probe_journal, probe_dir);
    advance_rate.push_back(ratio(t.advance_s, t.advanced_sim_s));
  }

  const double trials = static_cast<double>(2 * k);
  JsonObject layers;
  add_timing(layers, "campaign.spec_parse_s", spec_parse_samples(probe_text));
  add_timing(layers, "campaign.journal_append_s",
             probe_log.durations("campaign.journal_append"));
  add_timing(layers, "campaign.record_codec_s",
             probe_log.durations("campaign.record_codec"));
  layers
      .num("campaign.overhead_s_per_trial",
           ratio(quantile(cpu_s, 0.5), static_cast<double>(2 * pairs)) -
               quantile(plain_s, 0.5))
      .num("campaign.artifact_bytes_per_trial", 0.0)
      .num("campaign.workers_spawned", options.jobs)
      .num("campaign.retries", 0.0)
      .num("campaign.worker_crashes", 0.0);
  add_timing(layers, "scenario.boot_s", log.durations("scenario.boot"));
  add_timing(layers, "scenario.duel_setup_s",
             probe_log.durations("scenario.duel_setup"));
  add_timing(layers, "scenario.advance_s_per_sim_s", advance_rate);
  add_timing(layers, "scenario.finish_s",
             probe_log.durations("scenario.finish"));
  add_timing(layers, "scenario.trial_s", log.durations("scenario.trial"));
  const std::vector<double> suite = log.durations("workload.run_suite");
  layers.num("sim.ns_per_event", ratio(sum_of(suite) * 1e9, engine.events));
  add_count_layers(layers, counts, engine, trials, traced_sim_s);
  layers.num("secure.hash_gbps", hash_gbps());
  add_timing(layers, "obs.metrics_save_s", save_s);
  layers.num("obs.tracing_overhead", ratio(sum_of(traced_s), sum_of(plain_s)));
  add_timing(layers, "workload.run_suite_s", suite);
  layers.num("workload.iterations", ratio(iterations, trials));

  out.raw("replay", JsonObject()
                        .num("trials", trials)
                        .boolean("records_match", mismatch.empty())
                        .str("mismatch", mismatch)
                        .text())
      .raw("layers", layers.text())
      .raw("spans", span_table(log));
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.command == "setup") return command_setup(args);
    if (args.command != "run") {
      throw std::invalid_argument("unknown command " + args.command);
    }
    return is_campaign_workload(args.workload) ? run_campaign_workload(args)
                                               : run_overhead_workload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "satin_perfbench: %s\n", e.what());
    return 1;
  }
}
