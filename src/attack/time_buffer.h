// The shared time buffer the probers communicate through.
//
// §III-B1: "the Time Reporter obtains the latest time from a shared timer
// among all CPU cores and then reports the time into a buffer that is
// readable to all threads." Cross-core visibility is imperfect — §IV-B2
// observed rare abnormal read delays up to 1.3e-3 s — so an
// observed_staleness() read adds a calibrated visibility delay: a small
// base draw, occasionally a heavy-tailed spike (Poisson arrivals).
//
// This is the hottest stochastic consumer in the tree (~672M base draws
// per bench_satin_detection run), so the delay draws ride the batched
// pipeline (sim/rng.h): the base truncated normal and the spike-gate
// canonicals come from dedicated forked substreams, precomputed in blocks
// under DrawMode::kBatched, the default. DrawMode::kScalar draws them one
// at a time and is the oracle the tests compare against. The rare spike
// magnitude is drawn one at a time from its own substream in both modes.
// Mode changes values on no read — streams are bit-identical across modes
// by contract.
#pragma once

#include <cstdint>
#include <vector>

#include "hw/timing_params.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace satin::attack {

class SharedTimeBuffer {
 public:
  // `reads_per_second` is the aggregate observed_staleness() call rate of
  // the deployed prober (used to convert the model's spike rate per second
  // into a per-read probability). The model is captured by value.
  SharedTimeBuffer(int num_slots, hw::CrossCoreDelayModel model,
                   sim::Rng rng, double reads_per_second, int probed_cores,
                   sim::DrawMode mode = sim::DrawMode::kBatched);

  // Time Reporter: slot's owner writes the current shared-counter value.
  void report(int slot, sim::Time now) {
    last_report_[static_cast<std::size_t>(slot)] = now;
    reported_[static_cast<std::size_t>(slot)] = 1;
    ++reports_;
  }

  bool ever_reported(int slot) const {
    return reported_[static_cast<std::size_t>(slot)] != 0;
  }
  sim::Time last_report(int slot) const {
    return last_report_[static_cast<std::size_t>(slot)];
  }

  // Time Comparer: how old slot's report *appears* from another core,
  // including the sampled visibility delay. A frozen reporter's staleness
  // grows without bound — that is the detection signal. Inline: every
  // comparer read of every probe round lands here.
  sim::Duration observed_staleness(int slot, sim::Time now) {
    const sim::Time reported = last_report_[static_cast<std::size_t>(slot)];
    const sim::Duration age =
        now >= reported ? now - reported : sim::Duration::zero();
    // Routine visibility delay: small, always present. Use a fraction of
    // the plateau model (the plateau also includes wake-phase geometry,
    // which the event-driven prober exhibits organically through its real
    // wake times).
    double delay_s = 0.35 * base_stream_.next();
    if (spike_gate_.next() < spike_prob_per_read_) delay_s += spike_s();
    return age + sim::Duration::from_sec_f(delay_s);
  }

  std::uint64_t reports() const { return reports_; }
  std::uint64_t spiked_reads() const { return spiked_reads_; }

 private:
  // The rare spike a read adds (counts it); out of line.
  double spike_s();

  hw::CrossCoreDelayModel model_;
  double spike_prob_per_read_;
  int probed_cores_;
  // Routine visibility delay, pre-scaled by magnitude_scale(probed_cores).
  sim::TruncatedNormalStream base_stream_;
  // One canonical per read gates the spike (canonical < p, i.e.
  // Rng::bernoulli inlined so the batched path can precompute it).
  sim::CanonicalStream spike_gate_;
  // Spike magnitudes are ~5e-6 per read: never worth batching.
  sim::Rng spike_rng_;
  std::vector<sim::Time> last_report_;
  std::vector<std::uint8_t> reported_;  // bytes: one load per read
  std::uint64_t reports_ = 0;
  std::uint64_t spiked_reads_ = 0;
};

}  // namespace satin::attack
