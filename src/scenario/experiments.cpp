#include "scenario/experiments.h"

#include <algorithm>

#include "fault/injector.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "os/system_map.h"

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

}  // namespace

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
