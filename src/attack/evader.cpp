#include "attack/evader.h"

#include <stdexcept>

#include "obs/flight/recorder.h"
#include "obs/metrics.h"

namespace satin::attack {

TzEvader::TzEvader(os::RichOs& os, EvaderConfig config)
    : os_(os),
      config_(std::move(config)),
      rootkit_(os, os.platform().rng().fork("tz-evader-rootkit")),
      prober_(os, config_.prober) {
  rootkit_.add_gettid_trace();
  prober_.set_on_detect([this](hw::CoreId core, sim::Time when,
                               sim::Duration staleness) {
    on_detect(core, when, staleness);
  });
  prober_.set_on_clear(
      [this](hw::CoreId core, sim::Time when) { on_clear(core, when); });
}

void TzEvader::deploy() {
  if (deployed_) throw std::logic_error("TzEvader::deploy: already deployed");
  deployed_ = true;
  prober_.deploy();
  if (config_.auto_install) rootkit_.install();
}

hw::CoreType TzEvader::cleanup_core_type(hw::CoreId flagged_core) const {
  if (config_.cleanup_core) {
    return os_.platform().core(*config_.cleanup_core).type();
  }
  // Conservative default: the cleanup thread lands on the slowest core
  // still in the normal world (paper's worst case, §IV-C).
  hw::CoreType slowest = hw::CoreType::kBigA57;
  for (int c = 0; c < os_.platform().num_cores(); ++c) {
    if (c == flagged_core) continue;
    if (os_.platform().core(c).type() == hw::CoreType::kLittleA53) {
      slowest = hw::CoreType::kLittleA53;
      break;
    }
  }
  return slowest;
}

void TzEvader::on_detect(hw::CoreId core, sim::Time when,
                         sim::Duration staleness) {
  if (observer_) observer_(core, when, staleness);
  if (!rootkit_.installed() || rootkit_.recovering()) return;
  ++evasions_;
  SATIN_FLIGHT_RECORD(obs::FlightKind::kEvasion, when, evasions_ - 1, core,
                      static_cast<std::uint64_t>(staleness.ps()));
  SATIN_METRIC_INC("attack.evasions");
  // The recovery may outlive a short introspection round; re-arm once it
  // completes if the coast has cleared meanwhile.
  rootkit_.begin_recovery(cleanup_core_type(core), [this] { try_rearm(); });
}

void TzEvader::on_clear(hw::CoreId, sim::Time) { try_rearm(); }

void TzEvader::try_rearm() {
  if (prober_.any_flagged()) return;  // a core still looks secure-held
  if (rootkit_.installed()) return;   // never hid / already re-armed
  if (rootkit_.recovering()) return;  // cleanup still running
  // Coast looks clear: re-arm after a short delay, re-checking at fire
  // time in case a new introspection round started meanwhile.
  os_.platform().engine().schedule_after(
      sim::Duration::from_sec_f(config_.rearm_delay_s), [this] {
        if (prober_.any_flagged() || rootkit_.installed() ||
            rootkit_.recovering()) {
          return;
        }
        rootkit_.install();
        ++rearms_;
        SATIN_FLIGHT_RECORD(obs::FlightKind::kRearm,
                            os_.platform().engine().now(), rearms_ - 1,
                            obs::kGlobalTrack, 0);
        SATIN_METRIC_INC("attack.rearms");
      });
}

}  // namespace satin::attack
