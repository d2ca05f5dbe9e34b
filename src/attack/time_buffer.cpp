#include "attack/time_buffer.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace satin::attack {

namespace {

sim::TruncatedNormalStream make_base_stream(
    const hw::CrossCoreDelayModel& model, sim::Rng rng, int probed_cores,
    sim::DrawMode mode) {
  const double s = model.magnitude_scale(probed_cores);
  return sim::TruncatedNormalStream(std::move(rng), model.base_mean_s * s,
                                    model.base_stddev_s * s,
                                    model.base_min_s * s, model.base_max_s * s,
                                    mode);
}

// Checked before the slot vectors are sized from it.
std::size_t checked_slots(int num_slots) {
  if (num_slots <= 0) throw std::invalid_argument("SharedTimeBuffer: slots");
  return static_cast<std::size_t>(num_slots);
}

}  // namespace

SharedTimeBuffer::SharedTimeBuffer(int num_slots,
                                   hw::CrossCoreDelayModel model,
                                   sim::Rng rng, double reads_per_second,
                                   int probed_cores, sim::DrawMode mode)
    : model_(model),
      spike_prob_per_read_(
          reads_per_second > 0.0
              ? std::min(1.0, model.spike_rate_per_s / reads_per_second)
              : 0.0),
      probed_cores_(probed_cores),
      // Substream forks happen in declaration order, so the split is
      // deterministic — and identical across DrawMode (mode only selects
      // how each stream is realized, never which draws exist).
      base_stream_(make_base_stream(model, rng.fork("base"), probed_cores,
                                    mode)),
      spike_gate_(rng.fork("bernoulli"), mode),
      spike_rng_(rng.fork("spike")),
      last_report_(checked_slots(num_slots)),
      reported_(checked_slots(num_slots), 0) {
  if (reads_per_second <= 0.0) {
    throw std::invalid_argument("SharedTimeBuffer: read rate");
  }
}

double SharedTimeBuffer::spike_s() {
  ++spiked_reads_;
  return std::min(model_.sample_spike_seconds(spike_rng_, probed_cores_),
                  model_.event_spike_cap_s);
}

}  // namespace satin::attack
