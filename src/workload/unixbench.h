// Mini-UnixBench: the normal-world workload suite of Fig. 7 (§VI-B2).
//
// Each of the 12 UnixBench programs is modeled as a thread that executes
// fixed-cost iterations; its score is iterations completed per second of
// wall-clock window. A secure-world stay on the workload's core costs it
// (a) the stolen CPU time — exact, through the scheduler freeze — and
// (b) a per-workload disruption penalty consumed before useful work
// resumes (cache/TLB/buffer state repair and timing-loop disturbance).
// The penalties are the calibrated quantity here: chosen so the suite
// reproduces Fig. 7's shape — sub-1% overall, with `file copy 256B` and
// `context switching` the clear worst at a few percent. DESIGN.md /
// EXPERIMENTS.md discuss this calibration.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/core.h"
#include "os/rich_os.h"

namespace satin::workload {

struct WorkloadSpec {
  std::string name;
  sim::Duration iteration_cost;
  sim::Duration disruption_penalty;
};

// The 12 benchmark programs of Fig. 7, in plot order.
const std::vector<WorkloadSpec>& unixbench_suite();

// A loop (os::DutyCycle with no sleep, DESIGN.md §19): compute
// iteration_cost, count one iteration, repeat. The count is an additive
// round, so a burst of n iterations adds n at once. A stop request or a
// pending penalty diverts the loop for one step.
class WorkloadThread final : public os::Thread {
 public:
  explicit WorkloadThread(WorkloadSpec spec);

  os::Action next_action(os::OsContext& ctx) override;

  const WorkloadSpec& spec() const { return spec_; }
  std::uint64_t iterations() const { return iterations_; }

  // Harness control: a stopped thread exits at its next scheduling point.
  void request_stop() { stop_requested_ = true; }
  bool stopped() const { return state() == os::ThreadState::kExited; }

  // Queues disruption work (consumed before the next counted iteration).
  void add_penalty(sim::Duration penalty) { pending_penalty_ += penalty; }

 private:
  void cycle_round(os::OsContext&, std::uint64_t rounds) override {
    iterations_ += rounds;
  }
  bool cycle_diverted() const override {
    return stop_requested_ || pending_penalty_ > sim::Duration::zero();
  }

  WorkloadSpec spec_;
  std::uint64_t iterations_ = 0;
  sim::Duration pending_penalty_;
  bool stop_requested_ = false;
};

// Runs measurement windows for every suite workload and deals disruption
// penalties when a core returns from the secure world.
class UnixBenchHarness final : public hw::WorldListener {
 public:
  explicit UnixBenchHarness(os::RichOs& os);
  ~UnixBenchHarness() override;

  struct Result {
    std::string name;
    double score = 0.0;  // iterations per second per copy
  };

  // Runs each workload for `window` with `copies` parallel copies
  // (§VI-B2's 1-task and 6-task settings) and returns per-workload scores.
  std::vector<Result> run_suite(sim::Duration window, int copies);

  // WorldListener: penalty delivery.
  void on_secure_entry(hw::CoreId core, sim::Time when) override;
  void on_secure_exit(hw::CoreId core, sim::Time when) override;

 private:
  os::RichOs& os_;
  std::vector<WorkloadThread*> active_;
};

// 1 - score_with / score_without, per workload.
struct DegradationRow {
  std::string name;
  double baseline_score = 0.0;
  double satin_score = 0.0;
  double degradation = 0.0;  // fraction, e.g. 0.0356
};

std::vector<DegradationRow> compare_runs(
    const std::vector<UnixBenchHarness::Result>& baseline,
    const std::vector<UnixBenchHarness::Result>& with_satin);

// Arithmetic mean of per-test degradations (the paper's summary numbers
// 0.711% / 0.848% are suite averages).
double mean_degradation(const std::vector<DegradationRow>& rows);

}  // namespace satin::workload
