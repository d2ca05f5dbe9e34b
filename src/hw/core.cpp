#include "hw/core.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "obs/flight/recorder.h"
#include "obs/metrics.h"

namespace satin::hw {

namespace {

// Always-on world-state invariant: throws with the core, the simulated
// time and the last secure entry instead of corrupting the world state in
// an optimized build. Out of line and cold, off the world-switch path.
[[noreturn, gnu::cold, gnu::noinline]] void broken_world_invariant(
    const Core& core, const char* what, sim::Time when,
    sim::Time last_entry) {
  throw std::logic_error("Core invariant: " + core.name() + " " + what +
                         " at t=" + when.to_string() +
                         " (last secure entry at t=" + last_entry.to_string() +
                         ")");
}

}  // namespace

void Core::remove_world_listener(WorldListener* listener) {
  listeners_.erase(std::remove(listeners_.begin(), listeners_.end(), listener),
                   listeners_.end());
}

void Core::set_online(bool online, sim::Time when) {
  if (online_ == online) return;
  online_ = online;
  SATIN_FLIGHT_RECORD(obs::FlightKind::kCoreState, when, 0, id_,
                      obs::core_state_payload(
                          online ? obs::FlightCoreState::kOnline
                                 : obs::FlightCoreState::kOffline));
  if (online) {
    SATIN_METRIC_INC("hw.core_online");
  } else {
    SATIN_METRIC_INC("hw.core_offline");
  }
}

std::string Core::name() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "core%d(%s)", id_, to_string(type_));
  return buf;
}

void Core::enter_secure(sim::Time when) {
  if (world_ != World::kNormal) {
    broken_world_invariant(*this, "nested secure entry", when,
                           secure_entry_time_);
  }
  if (notifying_exit_) {
    // Open defect (ROADMAP): a listener notified ahead of RichOs (the
    // GIC, delivering a pended secure-timer IRQ) re-entered the secure
    // world before the rest heard of the exit. RichOs then sees this
    // entry while still frozen, and the exit below un-freezes a core
    // that is secure again.
    SATIN_METRIC_INC("hw.secure_reentries");
  }
  world_ = World::kSecure;
  secure_entry_time_ = when;
  ++secure_entries_;
  SATIN_METRIC_INC("hw.secure_entries");
  for (WorldListener* l : listeners_) l->on_secure_entry(id_, when);
}

void Core::exit_secure(sim::Time when) {
  if (world_ != World::kSecure) {
    broken_world_invariant(*this, "secure exit without entry", when,
                           secure_entry_time_);
  }
  world_ = World::kNormal;
  secure_total_ += when - secure_entry_time_;
  SATIN_METRIC_OBSERVE("hw.secure_stay_s", (when - secure_entry_time_).sec());
  notifying_exit_ = true;
  for (WorldListener* l : listeners_) l->on_secure_exit(id_, when);
  notifying_exit_ = false;
}

}  // namespace satin::hw
