#include "workload/unixbench.h"

#include <stdexcept>
#include <string>

namespace satin::workload {

const std::vector<WorkloadSpec>& unixbench_suite() {
  using sim::Duration;
  // iteration_cost: granularity of the program's inner loop (affects only
  // how finely freezes interleave). disruption_penalty: effective work
  // lost per secure-world stay on the program's core, calibrated to
  // Fig. 7: the two pipe/buffer-heavy tests (file copy 256B, context
  // switching) pay an order of magnitude more than the compute-bound
  // ones, which is what makes them the figure's outliers.
  static const std::vector<WorkloadSpec> suite = {
      {"dhrystone2", Duration::from_us(100), Duration::from_ms(1)},
      {"whetstone", Duration::from_us(120), Duration::from_ms(1)},
      {"execl_throughput", Duration::from_us(800), Duration::from_ms(3)},
      {"file_copy_256B", Duration::from_us(150), Duration::from_ms(165)},
      {"file_copy_1024B", Duration::from_us(200), Duration::from_ms(12)},
      {"file_copy_4096B", Duration::from_us(300), Duration::from_ms(6)},
      {"pipe_throughput", Duration::from_us(80), Duration::from_ms(10)},
      {"context_switching", Duration::from_us(60), Duration::from_ms(170)},
      {"process_creation", Duration::from_us(1200), Duration::from_ms(5)},
      {"shell_scripts_1", Duration::from_ms(5), Duration::from_ms(2)},
      {"shell_scripts_8", Duration::from_ms(12), Duration::from_ms(3)},
      {"syscall_overhead", Duration::from_us(40), Duration::from_ms(1)},
  };
  return suite;
}

WorkloadThread::WorkloadThread(WorkloadSpec spec)
    : os::Thread("unixbench/" + spec.name), spec_(std::move(spec)) {
  declare_cycle({spec_.iteration_cost});
}

os::Action WorkloadThread::next_action(os::OsContext&) {
  if (stop_requested_) return os::ExitAction{};
  if (pending_penalty_ > sim::Duration::zero()) {
    // Repair work after a disruption: burns CPU, counts nothing.
    const sim::Duration penalty = pending_penalty_;
    pending_penalty_ = sim::Duration::zero();
    return os::ComputeAction{penalty, nullptr};
  }
  return cycle_action();
}

UnixBenchHarness::UnixBenchHarness(os::RichOs& os) : os_(os) {
  for (int c = 0; c < os_.platform().num_cores(); ++c) {
    os_.platform().core(c).add_world_listener(this);
  }
}

UnixBenchHarness::~UnixBenchHarness() {
  for (int c = 0; c < os_.platform().num_cores(); ++c) {
    os_.platform().core(c).remove_world_listener(this);
  }
}

void UnixBenchHarness::on_secure_entry(hw::CoreId, sim::Time) {}

void UnixBenchHarness::on_secure_exit(hw::CoreId core, sim::Time) {
  for (WorkloadThread* t : active_) {
    if (!t->stopped() && t->current_core() == core) {
      t->add_penalty(t->spec().disruption_penalty);
    }
  }
}

std::vector<UnixBenchHarness::Result> UnixBenchHarness::run_suite(
    sim::Duration window, int copies) {
  if (!os_.booted()) throw std::logic_error("UnixBenchHarness: boot first");
  if (copies <= 0) throw std::invalid_argument("UnixBenchHarness: copies");
  std::vector<Result> results;
  sim::Engine& engine = os_.platform().engine();
  for (const WorkloadSpec& spec : unixbench_suite()) {
    active_.clear();
    for (int i = 0; i < copies; ++i) {
      auto thread = std::make_unique<WorkloadThread>(spec);
      active_.push_back(thread.get());
      os_.add_thread(std::move(thread));
    }
    engine.run_for(window);
    std::uint64_t total = 0;
    for (WorkloadThread* t : active_) {
      total += t->iterations();
      t->request_stop();
    }
    // Drain: let stopped workloads leave their cores. Must outlast the
    // largest disruption penalty — a stopped thread mid-penalty still has
    // to burn it before it can exit, and a leftover zombie would skew the
    // next test's thread placement, so one is an error.
    engine.run_for(sim::Duration::from_ms(500));
    for (const WorkloadThread* t : active_) {
      if (t->stopped()) continue;
      throw std::logic_error(
          "UnixBenchHarness: " + t->name() + " still running on core " +
          std::to_string(t->current_core()) + " at t=" +
          engine.now().to_string() + ", after the 500 ms drain");
    }
    active_.clear();
    Result r;
    r.name = spec.name;
    r.score = static_cast<double>(total) / window.sec() /
              static_cast<double>(copies);
    results.push_back(std::move(r));
  }
  return results;
}

std::vector<DegradationRow> compare_runs(
    const std::vector<UnixBenchHarness::Result>& baseline,
    const std::vector<UnixBenchHarness::Result>& with_satin) {
  if (baseline.size() != with_satin.size()) {
    throw std::invalid_argument("compare_runs: size mismatch");
  }
  std::vector<DegradationRow> rows;
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    if (baseline[i].name != with_satin[i].name) {
      throw std::invalid_argument("compare_runs: order mismatch");
    }
    DegradationRow row;
    row.name = baseline[i].name;
    row.baseline_score = baseline[i].score;
    row.satin_score = with_satin[i].score;
    row.degradation =
        baseline[i].score > 0.0
            ? 1.0 - with_satin[i].score / baseline[i].score
            : 0.0;
    rows.push_back(std::move(row));
  }
  return rows;
}

double mean_degradation(const std::vector<DegradationRow>& rows) {
  if (rows.empty()) return 0.0;
  double sum = 0.0;
  for (const DegradationRow& r : rows) sum += r.degradation;
  return sum / static_cast<double>(rows.size());
}

}  // namespace satin::workload
