#include "campaign/spec.h"

#include <cmath>

#include "fault/plan.h"
#include "obs/file_io.h"
#include "sim/fnv1a.h"

namespace satin::campaign {

namespace {

double positive_number(const JsonValue& v, const std::string& where) {
  const double value = v.as_number(where);
  if (!(value > 0.0) || !std::isfinite(value)) {
    v.fail(where + ": must be a positive finite number");
  }
  return value;
}

int small_count(const JsonValue& v, const std::string& where, int max) {
  const std::int64_t value = v.as_int(where);
  if (value < 0 || value > max) {
    v.fail(where + ": must be in [0, " + std::to_string(max) + "]");
  }
  return static_cast<int>(value);
}

void parse_resilience(const JsonValue& v, core::ResilienceConfig& out) {
  const std::string where = "satin.resilience";
  v.reject_unknown_keys(where, {"watchdog", "watchdog_period_tp",
                                "watchdog_margin_tp", "max_scan_retries",
                                "adapt_offline"});
  if (const JsonValue* j = v.find("watchdog")) {
    out.watchdog = j->as_bool(where + ".watchdog");
  }
  if (const JsonValue* j = v.find("watchdog_period_tp")) {
    out.watchdog_period_tp = positive_number(*j, where + ".watchdog_period_tp");
  }
  if (const JsonValue* j = v.find("watchdog_margin_tp")) {
    out.watchdog_margin_tp = positive_number(*j, where + ".watchdog_margin_tp");
  }
  if (const JsonValue* j = v.find("max_scan_retries")) {
    out.max_scan_retries = small_count(*j, where + ".max_scan_retries", 16);
  }
  if (const JsonValue* j = v.find("adapt_offline")) {
    out.adapt_offline = j->as_bool(where + ".adapt_offline");
  }
}

void parse_satin(const JsonValue& v, core::SatinConfig& out) {
  const std::string where = "satin";
  v.reject_unknown_keys(
      where, {"tgoal_s", "tp_s", "randomize_wake", "randomize_area",
              "multi_core", "fixed_core", "whole_kernel_single_area",
              "resilience"});
  if (const JsonValue* j = v.find("tgoal_s")) {
    out.tgoal_s = positive_number(*j, where + ".tgoal_s");
  }
  if (const JsonValue* j = v.find("tp_s")) {
    out.tp_s = positive_number(*j, where + ".tp_s");
  }
  if (const JsonValue* j = v.find("randomize_wake")) {
    out.randomize_wake = j->as_bool(where + ".randomize_wake");
  }
  if (const JsonValue* j = v.find("randomize_area")) {
    out.randomize_area = j->as_bool(where + ".randomize_area");
  }
  if (const JsonValue* j = v.find("multi_core")) {
    out.multi_core = j->as_bool(where + ".multi_core");
  }
  if (const JsonValue* j = v.find("fixed_core")) {
    out.fixed_core = small_count(*j, where + ".fixed_core", 255);
  }
  if (const JsonValue* j = v.find("whole_kernel_single_area")) {
    out.whole_kernel_single_area =
        j->as_bool(where + ".whole_kernel_single_area");
  }
  if (const JsonValue* j = v.find("resilience")) {
    parse_resilience(*j, out.resilience);
  }
}

void parse_platform(const JsonValue& v, hw::PlatformConfig& out,
                    bool& seed_pinned) {
  const std::string where = "platform";
  v.reject_unknown_keys(where,
                        {"num_little", "num_big", "memory_bytes", "seed"});
  if (const JsonValue* j = v.find("num_little")) {
    out.num_little = small_count(*j, where + ".num_little", 64);
  }
  if (const JsonValue* j = v.find("num_big")) {
    out.num_big = small_count(*j, where + ".num_big", 64);
  }
  if (out.num_little + out.num_big < 1) {
    v.fail(where + ": needs at least one core");
  }
  if (const JsonValue* j = v.find("memory_bytes")) {
    const std::uint64_t bytes = j->as_uint(where + ".memory_bytes");
    // Must hold the default kernel image with headroom; reject sizes the
    // Scenario constructor would only reject mid-campaign.
    if (bytes < (12u << 20) || bytes > (1u << 30)) {
      j->fail(where + ".memory_bytes: must be in [12 MiB, 1 GiB]");
    }
    out.memory_bytes = static_cast<std::size_t>(bytes);
  }
  if (const JsonValue* j = v.find("seed")) {
    out.seed = j->as_uint(where + ".seed");
    seed_pinned = true;
  }
}

void parse_duel(const JsonValue& v, scenario::DuelConfig& out) {
  const std::string where = "duel";
  v.reject_unknown_keys(where, {"rounds_target", "max_sim_seconds"});
  if (const JsonValue* j = v.find("rounds_target")) {
    out.rounds_target = j->as_uint(where + ".rounds_target");
    if (out.rounds_target == 0) {
      j->fail(where + ".rounds_target: must be at least 1");
    }
  }
  if (const JsonValue* j = v.find("max_sim_seconds")) {
    out.max_sim_seconds = positive_number(*j, where + ".max_sim_seconds");
  }
}

void parse_attacker(const JsonValue& v, attack::EvaderConfig& out) {
  const std::string where = "attacker";
  v.reject_unknown_keys(where,
                        {"rearm_delay_s", "threshold_s", "cleanup_core"});
  if (const JsonValue* j = v.find("rearm_delay_s")) {
    out.rearm_delay_s = positive_number(*j, where + ".rearm_delay_s");
  }
  if (const JsonValue* j = v.find("threshold_s")) {
    out.prober.threshold_s = positive_number(*j, where + ".threshold_s");
  }
  if (const JsonValue* j = v.find("cleanup_core")) {
    out.cleanup_core = small_count(*j, where + ".cleanup_core", 255);
  }
}

}  // namespace

CampaignSpec parse_campaign_spec(const std::string& text,
                                 const std::string& source) {
  const JsonValue root = parse_json(text, source);
  const std::string where = "campaign";
  root.reject_unknown_keys(
      where, {"name", "trials", "root_seed", "jobs", "batch",
              "trial_timeout_s", "max_retries", "platform", "satin", "duel",
              "attacker", "faults", "faults_reseed"});

  CampaignSpec spec;
  if (const JsonValue* j = root.find("name")) {
    spec.name = j->as_string("name");
    if (spec.name.empty()) j->fail("name: must not be empty");
  }
  const JsonValue* trials = root.find("trials");
  if (trials == nullptr) root.fail("campaign: missing required key \"trials\"");
  spec.trials = trials->as_uint("trials");
  if (spec.trials == 0) trials->fail("trials: must be at least 1");
  if (const JsonValue* j = root.find("root_seed")) {
    spec.root_seed = j->as_uint("root_seed");
  }
  if (const JsonValue* j = root.find("jobs")) {
    const std::int64_t jobs = j->as_int("jobs");
    if (jobs < 1 || jobs > 256) j->fail("jobs: must be in [1, 256]");
    spec.jobs = static_cast<int>(jobs);
  }
  if (const JsonValue* j = root.find("batch")) {
    const std::int64_t batch = j->as_int("batch");
    if (batch < 1 || batch > 4096) j->fail("batch: must be in [1, 4096]");
    spec.batch = static_cast<int>(batch);
  }
  if (const JsonValue* j = root.find("trial_timeout_s")) {
    spec.trial_timeout_s = positive_number(*j, "trial_timeout_s");
  }
  if (const JsonValue* j = root.find("max_retries")) {
    spec.max_retries = small_count(*j, "max_retries", 16);
  }
  if (const JsonValue* j = root.find("platform")) {
    parse_platform(*j, spec.scenario.platform, spec.pin_first_platform_seed);
  }
  if (const JsonValue* j = root.find("satin")) {
    parse_satin(*j, spec.duel.satin);
  }
  if (const JsonValue* j = root.find("duel")) {
    parse_duel(*j, spec.duel);
  }
  if (const JsonValue* j = root.find("attacker")) {
    parse_attacker(*j, spec.duel.evader);
  }
  if (const JsonValue* j = root.find("faults")) {
    spec.faults = j->as_string("faults");
    // Validate the plan grammar now; arming happens per trial. The plan
    // parser's single-line diagnostic is wrapped with the spec position.
    try {
      (void)fault::FaultPlan::parse(spec.faults);
    } catch (const std::exception& e) {
      j->fail(std::string("faults: ") + e.what());
    }
  }
  if (const JsonValue* j = root.find("faults_reseed")) {
    spec.faults_reseed = j->as_bool("faults_reseed");
    if (spec.faults_reseed && spec.faults.empty()) {
      j->fail("faults_reseed: set but no \"faults\" plan given");
    }
  }
  return spec;
}

CampaignSpec load_campaign_spec(const std::string& path) {
  std::string text, error;
  if (!obs::read_file(path, text, &error)) throw JsonError(error);
  return parse_campaign_spec(text, path);
}

namespace {

template <typename T>
void fold_value(std::uint64_t& h, const T& value) {
  h = sim::fnv1a(&value, sizeof(value), h);
}

void fold_string(std::uint64_t& h, const std::string& s) {
  const std::uint64_t len = s.size();
  fold_value(h, len);
  h = sim::fnv1a(s.data(), s.size(), h);
}

}  // namespace

std::uint64_t CampaignSpec::content_hash() const {
  // Canonical field-order fold; doubles hash by bit pattern so the hash is
  // exactly as strict as the determinism contract.
  std::uint64_t h = sim::kFnv1aOffsetBasis;
  fold_string(h, name);
  fold_value(h, trials);
  fold_value(h, root_seed);
  // jobs / timeout / retries are *runtime* knobs: they never
  // change any trial's result, so a resume may legally override them.
  fold_value(h, scenario.platform.num_little);
  fold_value(h, scenario.platform.num_big);
  fold_value(h, static_cast<std::uint64_t>(scenario.platform.memory_bytes));
  fold_value(h, scenario.platform.seed);
  fold_value(h, pin_first_platform_seed);
  const core::SatinConfig& s = duel.satin;
  fold_value(h, s.tgoal_s);
  const double tp = s.tp_s.value_or(-1.0);
  fold_value(h, tp);
  fold_value(h, s.randomize_wake);
  fold_value(h, s.randomize_area);
  fold_value(h, s.multi_core);
  fold_value(h, s.fixed_core);
  fold_value(h, s.whole_kernel_single_area);
  fold_value(h, s.resilience.watchdog);
  fold_value(h, s.resilience.watchdog_period_tp);
  fold_value(h, s.resilience.watchdog_margin_tp);
  fold_value(h, s.resilience.max_scan_retries);
  fold_value(h, s.resilience.adapt_offline);
  fold_value(h, duel.rounds_target);
  fold_value(h, duel.max_sim_seconds);
  fold_value(h, duel.evader.rearm_delay_s);
  fold_value(h, duel.evader.prober.threshold_s);
  const std::int64_t cleanup =
      duel.evader.cleanup_core.has_value() ? *duel.evader.cleanup_core : -1;
  fold_value(h, cleanup);
  fold_string(h, faults);
  fold_value(h, faults_reseed);
  return h;
}

}  // namespace satin::campaign
