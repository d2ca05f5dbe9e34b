#include "scenario/experiments.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>

#include "fault/injector.h"
#include "obs/flight/recorder.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "os/system_map.h"
#include "sim/batch.h"
#include "sim/fork.h"

namespace satin::scenario {

SecureActivityLog::SecureActivityLog(hw::Platform& platform)
    : platform_(platform),
      open_(static_cast<std::size_t>(platform.num_cores()), -1) {
  for (int c = 0; c < platform_.num_cores(); ++c) {
    platform_.core(c).add_world_listener(this);
  }
}

SecureActivityLog::~SecureActivityLog() {
  for (int c = 0; c < platform_.num_cores(); ++c) {
    platform_.core(c).remove_world_listener(this);
  }
}

void SecureActivityLog::on_secure_entry(hw::CoreId core, sim::Time when) {
  open_.at(static_cast<std::size_t>(core)) =
      static_cast<int>(intervals_.size());
  intervals_.push_back(Interval{core, when, sim::Time::zero(), false});
}

void SecureActivityLog::on_secure_exit(hw::CoreId core, sim::Time when) {
  const int idx = open_.at(static_cast<std::size_t>(core));
  if (idx >= 0) {
    intervals_[static_cast<std::size_t>(idx)].exit = when;
    intervals_[static_cast<std::size_t>(idx)].closed = true;
    open_[static_cast<std::size_t>(core)] = -1;
  }
}

namespace {

attack::EvaderConfig manual_install(attack::EvaderConfig config) {
  config.auto_install = false;
  return config;
}

std::uint64_t double_bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

double bits_double(std::uint64_t b) {
  double v = 0.0;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

}  // namespace

void BranchDelta::apply(DuelConfig& duel) const {
  if (satin_tgoal_s > 0.0) duel.satin.tgoal_s = satin_tgoal_s;
  if (satin_tp_s > 0.0) duel.satin.tp_s = satin_tp_s;
  if (satin_randomize_wake >= 0) {
    duel.satin.randomize_wake = satin_randomize_wake != 0;
  }
  if (prober_sleep_s > 0.0) duel.evader.prober.sleep_s = prober_sleep_s;
  if (prober_threshold_s > 0.0) {
    duel.evader.prober.threshold_s = prober_threshold_s;
  }
  if (evader_rearm_delay_s > 0.0) duel.evader.rearm_delay_s = evader_rearm_delay_s;
}

std::string encode_duel_report(const DuelReport& r) {
  // Fixed field order; every field one hex u64 (doubles as raw bits).
  // Keep in lockstep with decode_duel_report below.
  const std::uint64_t fields[] = {
      r.rounds,
      r.alarms,
      r.full_cycles,
      static_cast<std::uint64_t>(static_cast<std::int64_t>(r.target_area)),
      r.target_area_rounds,
      r.target_area_alarms,
      double_bits(r.avg_target_gap_s),
      r.secure_stays,
      r.prober_detections,
      r.false_positives,
      r.false_negatives,
      r.evasions_started,
      r.rearms,
      double_bits(r.sim_seconds),
      r.confirmed_alarms,
      r.transient_alarms,
      r.benign_confirmed_alarms,
      r.watchdog_fires,
      r.scan_retries,
  };
  std::string out;
  char buf[24];
  for (std::uint64_t f : fields) {
    std::snprintf(buf, sizeof(buf), "%llx",
                  static_cast<unsigned long long>(f));
    if (!out.empty()) out.push_back(' ');
    out += buf;
  }
  return out;
}

DuelReport decode_duel_report(const std::string& text) {
  constexpr std::size_t kFields = 19;
  std::uint64_t fields[kFields] = {};
  const char* p = text.c_str();
  for (std::size_t i = 0; i < kFields; ++i) {
    char* end = nullptr;
    fields[i] = std::strtoull(p, &end, 16);
    if (end == p) {
      throw std::invalid_argument("decode_duel_report: truncated record");
    }
    p = end;
    if (i + 1 < kFields) {
      if (*p != ' ') {
        throw std::invalid_argument("decode_duel_report: malformed record");
      }
      ++p;
    }
  }
  if (*p != '\0') {
    throw std::invalid_argument("decode_duel_report: trailing bytes");
  }
  DuelReport r;
  r.rounds = fields[0];
  r.alarms = fields[1];
  r.full_cycles = fields[2];
  r.target_area =
      static_cast<int>(static_cast<std::int64_t>(fields[3]));
  r.target_area_rounds = fields[4];
  r.target_area_alarms = fields[5];
  r.avg_target_gap_s = bits_double(fields[6]);
  r.secure_stays = fields[7];
  r.prober_detections = fields[8];
  r.false_positives = fields[9];
  r.false_negatives = fields[10];
  r.evasions_started = fields[11];
  r.rearms = fields[12];
  r.sim_seconds = bits_double(fields[13]);
  r.confirmed_alarms = fields[14];
  r.transient_alarms = fields[15];
  r.benign_confirmed_alarms = fields[16];
  r.watchdog_fires = fields[17];
  r.scan_retries = fields[18];
  return r;
}

DuelTrial::DuelTrial(Scenario& scenario, const DuelConfig& config)
    : scenario_(scenario),
      config_(config),
      activity_(scenario.platform()),
      // Trusted boot order matters: SATIN measures the pristine kernel
      // before the attack is planted. The defense may wake at any moment
      // after start(), so the evader's probers are deployed and warmed up
      // first — an APT attacker is in place long before the next
      // introspection round (§III-A), not racing the bootstrap.
      satin_(scenario.platform(), scenario.kernel(), scenario.tsp(),
             config.satin),
      evader_(scenario.os(), manual_install(config.evader)) {
  satin_.checker().authorize_boot_state();
  evader_.set_detect_observer(
      [this](hw::CoreId core, sim::Time when, sim::Duration) {
        detections_.push_back(Detection{core, when});
      });
  evader_.deploy();
  scenario_.run_for(sim::Duration::from_ms(10));  // prober warm-up
  satin_.start();
  evader_.rootkit().install();
  start_ = scenario_.now();
  deadline_ = start_ + sim::Duration::from_sec_f(config_.max_sim_seconds);
}

bool DuelTrial::done() const {
  return satin_.rounds() >= config_.rounds_target ||
         scenario_.now() >= deadline_;
}

void DuelTrial::advance(sim::Duration quantum) {
  scenario_.run_for(quantum);
}

DuelReport DuelTrial::finish() {
  satin_.stop();
  evader_.prober().retract();

  DuelReport report;
  report.rounds = satin_.rounds();
  report.alarms = satin_.alarm_count();
  report.full_cycles = satin_.full_cycles();
  report.sim_seconds = (scenario_.now() - start_).sec();
  report.evasions_started = evader_.evasions_started();
  report.rearms = evader_.rearms();
  report.prober_detections = static_cast<std::uint64_t>(detections_.size());
  report.secure_stays = activity_.stay_count();

  report.confirmed_alarms =
      satin_.checker().alarm_count(core::AlarmKind::kConfirmed);
  report.transient_alarms =
      satin_.checker().alarm_count(core::AlarmKind::kTransient);
  report.watchdog_fires = satin_.watchdog_fires();
  report.scan_retries = satin_.checker().retries_performed();

  const std::size_t gettid_offset =
      scenario_.kernel().syscall_entry_offset(os::kGettidSyscallNr);
  report.target_area = satin_.area_of_offset(gettid_offset);
  for (const core::Alarm& a : satin_.checker().alarms()) {
    if (a.kind == core::AlarmKind::kConfirmed && a.area != report.target_area) {
      ++report.benign_confirmed_alarms;
    }
  }

  sim::Time prev_target_entry;
  bool have_prev = false;
  double gap_sum = 0.0;
  std::size_t gap_count = 0;
  for (const core::RoundRecord& r : satin_.round_records()) {
    if (r.area != report.target_area) continue;
    ++report.target_area_rounds;
    if (r.alarm) ++report.target_area_alarms;
    if (have_prev) {
      gap_sum += (r.entry - prev_target_entry).sec();
      ++gap_count;
    }
    prev_target_entry = r.entry;
    have_prev = true;
  }
  if (gap_count > 0) {
    report.avg_target_gap_s = gap_sum / static_cast<double>(gap_count);
  }

  // Correlate detections with ground truth. A detection is genuine if it
  // falls inside a secure stay (small exit margin: the last staleness
  // sample may land just after the world switch back).
  const sim::Duration margin = sim::Duration::from_ms(2);
  for (const Detection& d : detections_) {
    const bool genuine = std::any_of(
        activity_.intervals().begin(), activity_.intervals().end(),
        [&](const SecureActivityLog::Interval& iv) {
          return iv.core == d.core && d.when >= iv.entry &&
                 (!iv.closed || d.when <= iv.exit + margin);
        });
    if (!genuine) ++report.false_positives;
  }
  for (const auto& iv : activity_.intervals()) {
    if (!iv.closed) continue;
    const bool noticed = std::any_of(
        detections_.begin(), detections_.end(), [&](const Detection& d) {
          return d.core == iv.core && d.when >= iv.entry &&
                 d.when <= iv.exit + margin;
        });
    if (!noticed) ++report.false_negatives;
  }
  return report;
}

DuelReport run_duel(Scenario& scenario, const DuelConfig& config) {
  DuelTrial trial(scenario, config);
  while (!trial.done()) trial.advance(sim::Duration::from_sec(1));
  return trial.finish();
}

namespace {

// run_duel as a lockstep citizen: owns its Scenario, writes its report
// into the submission-order slot the factory wired. finish() runs under
// the trial's sinks, so the metrics snapshot matches the unsharded path.
class DuelLockstepTrial final : public sim::LockstepTrial {
 public:
  DuelLockstepTrial(const ScenarioConfig& scenario_config,
                    const DuelConfig& duel, DuelReport* slot)
      : scenario_(scenario_config), trial_(scenario_, duel), slot_(slot) {}

  bool done() const override { return trial_.done(); }
  void advance(sim::Duration quantum) override { trial_.advance(quantum); }
  // Fused-pass contract (sim/batch.h): DuelTrial::advance IS
  // scenario.run_for, i.e. engine run_until, with no request_stop use and
  // no per-advance side work — the shard loop may drive the engine
  // directly.
  sim::Engine* fused_engine() override { return &scenario_.engine(); }
  void finish() override {
    *slot_ = trial_.finish();
    if (auto* registry = obs::metrics()) {
      obs::snapshot_engine_metrics(scenario_.engine(), *registry,
                                   /*include_wall=*/false);
    }
  }

 private:
  Scenario scenario_;
  DuelTrial trial_;
  DuelReport* slot_;
};

// Per-trial configs are derived identically on every sweep path.
ScenarioConfig duel_trial_scenario_config(const sim::TrialContext& ctx,
                                          DuelConfig& duel,
                                          const std::function<void(
                                              const sim::TrialContext&,
                                              ScenarioConfig&, DuelConfig&)>&
                                              customize) {
  ScenarioConfig scenario_config;
  scenario_config.platform.seed = ctx.seed;
  if (customize) customize(ctx, scenario_config, duel);
  return scenario_config;
}

// The COW fork path (--branches=N): trials grouped into consecutive
// branch groups of N, each group run as fork()ed children off the parent
// image. fork_prefix_s == 0 is the byte-identity oracle — every child
// replays its trial from scratch under fresh sinks, exactly the unforked
// per-trial body. fork_prefix_s > 0 is the speed path: the group leader's
// scenario is built and advanced through the warm prefix ONCE in the
// parent, children inherit it (and the group obs sinks) by copy-on-write
// and diverge via BranchDelta.
DuelSweep run_forked_duel_sweep(
    const DuelSweepConfig& config,
    const std::function<void(const sim::TrialContext&, ScenarioConfig&,
                             DuelConfig&)>& customize) {
  sim::TrialRunnerOptions options;
  options.jobs = config.jobs;
  options.root_seed = config.root_seed;
  options.flight_ring = config.flight_ring;
  const sim::TrialSeedSeq seeds(config.root_seed);

  DuelSweep sweep;
  // Same effective worker clamp as the in-process paths: `jobs` is the
  // requested-parallelism knob and sweep output must not depend on the
  // execution backend.
  sweep.jobs = sim::TrialRunner(options).jobs_for(config.trials);
  sweep.reports.resize(config.trials);

  const auto t0 = std::chrono::steady_clock::now();
  const auto group_size = static_cast<std::size_t>(config.branches);
  for (std::size_t base = 0; base < config.trials; base += group_size) {
    // branches > remaining trials clamps to the tail group's size.
    const std::size_t count = std::min(group_size, config.trials - base);
    sim::ForkServerOptions fork_options;
    fork_options.jobs = config.jobs;
    fork_options.timeout_s = config.fork_timeout_s;
    fork_options.max_retries = config.fork_retries;
    fork_options.flight_ring = config.flight_ring;
    fork_options.index_base = base;
    fork_options.marker_seed = [&seeds](std::size_t global) {
      return seeds.seed_for(global);
    };

    std::vector<std::string> payloads;
    if (config.fork_prefix_s <= 0.0) {
      sim::ForkServer server(fork_options);
      payloads = server.run_collect(count, [&](std::size_t branch) {
        const std::size_t index = base + branch;
        const sim::TrialContext ctx{index, seeds.seed_for(index)};
        DuelConfig duel = config.duel;
        const ScenarioConfig scenario_config =
            duel_trial_scenario_config(ctx, duel, customize);
        Scenario scenario(scenario_config);
        DuelReport report = run_duel(scenario, duel);
        if (auto* registry = obs::metrics()) {
          obs::snapshot_engine_metrics(scenario.engine(), *registry,
                                       /*include_wall=*/false);
        }
        return encode_duel_report(report);
      });
    } else {
      fork_options.inherit_sinks = true;
      sim::ForkServer server(fork_options);
      // Group sinks, created only when the session records: children
      // inherit them (already holding the prefix's records) by COW and
      // persist the whole per-branch stream for merge_obs().
      std::unique_ptr<obs::MetricsRegistry> group_metrics;
      std::unique_ptr<obs::FlightRecorder> group_flight;
      if (obs::metrics() != nullptr) {
        group_metrics = std::make_unique<obs::MetricsRegistry>();
      }
      if (obs::flight() != nullptr) {
        obs::FlightRecorderOptions flight_options;
        flight_options.ring = config.flight_ring;
        group_flight = std::make_unique<obs::FlightRecorder>(flight_options);
      }
      std::vector<sim::ForkOutcome> outcomes;
      {
        sim::TrialObsScope scope(group_metrics.get(), nullptr,
                                 group_flight.get());
        const sim::TrialContext leader{base, seeds.seed_for(base)};
        DuelConfig leader_duel = config.duel;
        ScenarioConfig scenario_config =
            duel_trial_scenario_config(leader, leader_duel, customize);
        Scenario scenario(scenario_config);
        scenario.run_for(sim::Duration::from_sec_f(config.fork_prefix_s));
        outcomes = server.run(count, [&](std::size_t branch) {
          const std::size_t index = base + branch;
          const sim::TrialContext ctx{index, seeds.seed_for(index)};
          DuelConfig duel = config.duel;
          ScenarioConfig discarded;  // scenario is already built pre-fork
          if (customize) customize(ctx, discarded, duel);
          BranchDelta delta;
          if (config.branch_delta) {
            delta = config.branch_delta(ctx);
          } else {
            delta.perturb = true;
            delta.seed_salt = index;
          }
          delta.apply(duel);
          if (delta.perturb) {
            scenario.platform().rng().perturb(delta.perturb_stream,
                                              delta.seed_salt);
          }
          DuelTrial trial(scenario, duel);
          while (!trial.done()) trial.advance(sim::Duration::from_sec(1));
          DuelReport report = trial.finish();
          if (auto* registry = obs::metrics()) {
            obs::snapshot_engine_metrics(scenario.engine(), *registry,
                                         /*include_wall=*/false);
          }
          return encode_duel_report(report);
        });
      }
      // The group scope is gone: merge_obs() targets the session sinks.
      server.merge_obs();
      for (const sim::ForkOutcome& outcome : outcomes) {
        if (!outcome.ok) throw std::runtime_error(outcome.error);
      }
      payloads.reserve(outcomes.size());
      for (sim::ForkOutcome& outcome : outcomes) {
        payloads.push_back(std::move(outcome.payload));
      }
    }
    for (std::size_t branch = 0; branch < payloads.size(); ++branch) {
      sweep.reports[base + branch] = decode_duel_report(payloads[branch]);
    }
  }
  sweep.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return sweep;
}

}  // namespace

DuelSweep run_duel_sweep(
    const DuelSweepConfig& config,
    const std::function<void(const sim::TrialContext&, ScenarioConfig&,
                             DuelConfig&)>& customize) {
  if (config.branches > 0) {
    if (config.batch > 1) {
      throw std::invalid_argument(
          "run_duel_sweep: branches and batch are mutually exclusive");
    }
    return run_forked_duel_sweep(config, customize);
  }

  sim::TrialRunnerOptions options;
  options.jobs = config.jobs;
  options.root_seed = config.root_seed;
  options.flight_ring = config.flight_ring;

  DuelSweep sweep;
  if (config.batch > 1) {
    sim::BatchRunnerOptions batch_options;
    batch_options.batch = static_cast<std::size_t>(config.batch);
    batch_options.fused = config.fused;
    batch_options.runner = options;
    sim::BatchRunner runner(batch_options);
    // Report the same effective worker clamp as the unsharded sweep:
    // `jobs` is the requested-parallelism knob, and sweep output must be
    // byte-identical across --batch (shards may cap workers lower).
    sweep.jobs = sim::TrialRunner(options).jobs_for(config.trials);
    sweep.reports.resize(config.trials);
    runner.run(config.trials, [&config, &customize, &sweep](
                                  const sim::TrialContext& ctx) {
      DuelConfig duel = config.duel;
      const ScenarioConfig scenario_config =
          duel_trial_scenario_config(ctx, duel, customize);
      return std::make_unique<DuelLockstepTrial>(scenario_config, duel,
                                                 &sweep.reports[ctx.index]);
    });
    sweep.wall_seconds = runner.wall_seconds();
    return sweep;
  }

  sim::TrialRunner runner(options);
  sweep.jobs = runner.jobs_for(config.trials);
  sweep.reports = runner.run_collect(
      config.trials, [&config, &customize](const sim::TrialContext& ctx) {
        DuelConfig duel = config.duel;
        const ScenarioConfig scenario_config =
            duel_trial_scenario_config(ctx, duel, customize);
        Scenario scenario(scenario_config);
        DuelReport report = run_duel(scenario, duel);
        // Engine self-metrics, minus host wall time: trial metrics must
        // stay bit-identical across --jobs.
        if (auto* registry = obs::metrics()) {
          obs::snapshot_engine_metrics(scenario.engine(), *registry,
                                       /*include_wall=*/false);
        }
        return report;
      });
  sweep.wall_seconds = runner.wall_seconds();
  return sweep;
}

SingleDuelResult run_single_duel(const ScenarioConfig& scenario_config,
                                 const DuelConfig& duel,
                                 const std::string& fault_spec) {
  Scenario system(scenario_config);
  const auto injector = fault::install_from_spec(system.platform(), fault_spec);
  SingleDuelResult out;
  out.report = run_duel(system, duel);
  out.faults_injected = injector ? injector->injected_total() : 0;
  // Engine self-metrics, minus host wall time: the snapshot must stay
  // bit-identical no matter which worker (thread or process) ran it.
  if (auto* registry = obs::metrics()) {
    obs::snapshot_engine_metrics(system.engine(), *registry,
                                 /*include_wall=*/false);
  }
  return out;
}

}  // namespace satin::scenario
