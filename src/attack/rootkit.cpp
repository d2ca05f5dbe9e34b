#include "attack/rootkit.h"

#include <stdexcept>

#include "os/system_map.h"

namespace satin::attack {

Rootkit::Rootkit(os::RichOs& os, sim::Rng rng)
    : os_(os), rng_(std::move(rng)) {}

void Rootkit::add_gettid_trace() {
  const os::KernelImage& image = os_.kernel_image();
  TraceSpec trace;
  trace.name = "gettid-hijack";
  trace.offset = image.syscall_entry_offset(os::kGettidSyscallNr);
  const auto benign = image.benign_syscall_entry(os::kGettidSyscallNr);
  trace.benign.assign(benign.begin(), benign.end());
  trace.malicious = trace.benign;
  // Redirect the entry to attacker code: flip every byte so any scanned
  // byte of the entry differs from the authorized image (§IV-A2: the
  // introspection detects the hijack "if it scans any of these 8 bytes").
  for (auto& b : trace.malicious) b = static_cast<std::uint8_t>(~b);
  add_trace(std::move(trace));
}

void Rootkit::add_trace(TraceSpec trace) {
  if (trace.benign.size() != trace.malicious.size() || trace.benign.empty()) {
    throw std::invalid_argument("Rootkit::add_trace: size mismatch");
  }
  if (installed_ || recovering_) {
    throw std::logic_error("Rootkit::add_trace: attack in progress");
  }
  traces_.push_back(std::move(trace));
}

std::size_t Rootkit::trace_bytes() const {
  std::size_t total = 0;
  for (const TraceSpec& t : traces_) total += t.benign.size();
  return total;
}

void Rootkit::install() {
  if (traces_.empty()) throw std::logic_error("Rootkit::install: no traces");
  if (recovering_) throw std::logic_error("Rootkit::install: mid-recovery");
  hw::Memory& mem = os_.platform().memory();
  const sim::Time now = os_.platform().engine().now();
  for (const TraceSpec& t : traces_) {
    mem.write(now, t.offset, t.malicious);
  }
  installed_ = true;
  ++installs_;
}

void Rootkit::begin_recovery(hw::CoreType type, std::function<void()> done) {
  if (recovering_) {
    throw std::logic_error("Rootkit::begin_recovery: already recovering");
  }
  if (!installed_) {
    throw std::logic_error("Rootkit::begin_recovery: nothing installed");
  }
  recovering_ = true;
  last_recovery_ = os_.platform().timing().recover(type).sample(rng_);
  const std::size_t total_bytes = trace_bytes();
  const sim::Time start = os_.platform().engine().now();
  sim::Engine& engine = os_.platform().engine();

  // Restore byte k at start + recovery * (k+1)/M: the cleanup is a linear
  // pass, so a concurrent introspection cursor races each byte separately.
  std::size_t k = 0;
  for (const TraceSpec& t : traces_) {
    for (std::size_t i = 0; i < t.benign.size(); ++i, ++k) {
      const sim::Time when =
          start + last_recovery_ * (static_cast<double>(k + 1) /
                                    static_cast<double>(total_bytes));
      const std::size_t offset = t.offset + i;
      const std::uint8_t value = t.benign[i];
      const bool last = k + 1 == total_bytes;
      engine.schedule_at(when, [this, offset, value, last,
                                done = last ? std::move(done)
                                            : std::function<void()>{}] {
        const std::uint8_t byte[1] = {value};
        os_.platform().memory().write(os_.platform().engine().now(), offset,
                                      byte);
        if (last) {
          recovering_ = false;
          installed_ = false;
          ++recoveries_;
          if (done) done();
        }
      });
    }
  }
}

}  // namespace satin::attack
