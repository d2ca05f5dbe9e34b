// Campaign worker process: the in-child half of the supervisor protocol.
//
// The supervisor forks; the child calls worker_main() and never returns.
// Wire protocol (newline-delimited ASCII, one pipe pair per worker):
//
//   supervisor -> worker : "T <idx>"        run trial idx
//                          "T <idx> kill"   chaos: SIGKILL self instead
//                          "T <idx> hang"   chaos: wedge instead
//                          "Q"              drain done, exit 0
//   worker -> supervisor : "B <idx>"        trial begun (heartbeat; arms
//                                           the supervisor's timeout)
//                          "R <record>"     completed-trial record with
//                                           checksum (campaign/trial.h),
//                                           appended to the journal
//                                           verbatim after validation
//
// Order inside the worker is load-bearing: per-trial obs artifacts
// (metrics snapshot, flight file) are written and closed BEFORE the "R"
// line is sent, so after a process crash — of the worker or of the
// supervisor — a journal-recorded trial always has its artifacts: a crash
// between the two costs a re-run, never a half-merged aggregate. That
// holds across process crashes only. Neither artifact is fsync'd (only
// the supervisor's journal append is), so after a power cut a journalled
// trial can lack its artifact, and the merge reports it as a gap in
// campaign.artifacts_missing. The worker exits via _exit() on every path:
// flushing stdio buffers or running destructors inherited from the
// supervisor would corrupt the parent's files.
#pragma once

#include <cstdint>
#include <string>

#include "campaign/spec.h"

namespace satin::campaign {

struct WorkerContext {
  const CampaignSpec* spec = nullptr;
  int cmd_fd = -1;   // read end: commands from the supervisor
  int res_fd = -1;   // write end: heartbeats and results
  // Where per-trial obs artifacts go. Every trial saves its metrics
  // snapshot there (a few KB), so a resume started with --metrics can
  // merge trials an earlier metrics-less run completed.
  std::string artifacts_dir;
  bool want_flight = false;
};

// Per-trial artifact paths, shared with the supervisor-side merge.
std::string trial_metrics_path(const std::string& dir, std::uint64_t index);
std::string trial_flight_path(const std::string& dir, std::uint64_t index);

// Runs the command loop; never returns (terminates with _exit).
[[noreturn]] void worker_main(const WorkerContext& context);

}  // namespace satin::campaign
