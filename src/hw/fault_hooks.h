// Fault-injection seams for the hardware blocks.
//
// The paper's guarantees are argued over a well-behaved platform; real
// TrustZone deployments see misfiring timers, lost interrupts, failed
// world switches, transient read glitches and cores dropping offline.
// Each hardware block consults an optional FaultHooks instance at exactly
// one choke point; with no hooks installed (the default) every seam is a
// single null-pointer test and behavior is bit-identical to the seamless
// build. src/fault/ provides the deterministic injector that implements
// this interface from a seeded plan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hw/types.h"
#include "sim/time.h"

namespace satin::hw {

// What happens to a secure-timer expiry being programmed (CNTPS_CVAL_EL1
// write): delivered as requested, silently dropped, or delayed by `drift`.
struct TimerFaultDecision {
  bool drop = false;
  sim::Duration drift = sim::Duration::zero();
};

// One transient read glitch: the scan observes the byte at `pos` (from
// the scan's first byte) XORed with `mask`.
struct BitFlip {
  std::size_t pos = 0;
  std::uint8_t mask = 0;

  friend bool operator==(const BitFlip&, const BitFlip&) = default;
};

class FaultHooks {
 public:
  virtual ~FaultHooks() = default;

  // GenericTimer consults when a secure expiry is (re)programmed. The
  // decision is made against the requested compare value, so a dropped or
  // drifted wake is fixed the moment it is scheduled — deterministic
  // regardless of later event interleaving.
  virtual TimerFaultDecision on_program_secure(CoreId core,
                                               sim::Time compare_value) = 0;

  // InterruptController consults before routing a secure-group interrupt;
  // returning true swallows it (lost between the distributor and the CPU
  // interface).
  virtual bool drop_secure_irq(CoreId core, IrqId irq) = 0;

  // SecureMonitor consults before the world switch into the secure world;
  // returning true aborts the entry (failed SMC / stuck context save). The
  // core never leaves the normal world and the round is lost.
  virtual bool fail_secure_entry(CoreId core) = 0;

  // Memory consults when a linear scan of `length` bytes registers; the
  // hook returns the bits a transient read glitch flips in what that scan
  // observes, in order (empty when it flips none). Physical memory itself
  // is untouched — a re-read observes clean bytes.
  virtual std::vector<BitFlip> scan_flips(sim::Time scan_start,
                                          std::size_t length) = 0;
};

}  // namespace satin::hw
