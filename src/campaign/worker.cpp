#include "campaign/worker.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include <unistd.h>

#include "campaign/trial.h"
#include "obs/flight/recorder.h"
#include "obs/metrics.h"
#include "sim/parallel.h"

namespace satin::campaign {

namespace {

// write() the whole buffer; a failed write means the supervisor is gone,
// so the worker just dies (its trial will be re-dispatched elsewhere).
void write_line_or_die(int fd, const std::string& line) {
  const char* p = line.data();
  std::size_t left = line.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n <= 0) _exit(1);
    p += n;
    left -= static_cast<std::size_t>(n);
  }
}

// Blocking newline-delimited reader over the raw fd (no stdio: the child
// must not share buffered state with the parent).
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  // False on EOF (supervisor died or closed the pipe).
  bool next(std::string& line) {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[512];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
};

// A trial whose artifacts cannot be written is given up: the supervisor
// sees the exit as a crash and retries it.
[[noreturn]] void artifact_failed(std::uint64_t index, const std::string& why) {
  std::fprintf(stderr, "campaign worker: trial %llu: %s\n",
               static_cast<unsigned long long>(index), why.c_str());
  _exit(4);
}

}  // namespace

std::string trial_metrics_path(const std::string& dir, std::uint64_t index) {
  return dir + "/trial_" + std::to_string(index) + ".met";
}

std::string trial_flight_path(const std::string& dir, std::uint64_t index) {
  return dir + "/trial_" + std::to_string(index) + ".flt";
}

void worker_main(const WorkerContext& ctx) {
  // This process must not record into (or later flush) the supervisor's
  // session sinks: every trial gets private ones below.
  obs::install_metrics(nullptr);
  obs::install_flight(nullptr);
  // A dead supervisor shows up as EPIPE/EOF, and the default SIGPIPE
  // disposition turns the first write into a clean exit — exactly the
  // orphan-reaping behavior the resume path wants.
  std::signal(SIGPIPE, SIG_DFL);

  LineReader commands(ctx.cmd_fd);
  std::string line;
  while (commands.next(line)) {
    if (line == "Q") _exit(0);
    if (line.compare(0, 2, "T ") != 0) _exit(2);
    char* end = nullptr;
    const std::uint64_t index = std::strtoull(line.c_str() + 2, &end, 10);
    const std::string flag = end != nullptr && *end == ' ' ? end + 1 : "";

    write_line_or_die(ctx.res_fd, "B " + std::to_string(index) + "\n");

    if (flag == "kill") raise(SIGKILL);
    if (flag == "hang") {
      for (;;) pause();
    }

    obs::MetricsRegistry metrics;
    std::unique_ptr<obs::FlightRecorder> flight;
    if (ctx.want_flight) {
      obs::FlightRecorder::Options fopts;
      fopts.path = trial_flight_path(ctx.artifacts_dir, index);
      flight = std::make_unique<obs::FlightRecorder>(fopts);
      // A recorder without its file would keep the whole stream in memory.
      if (flight->failed()) artifact_failed(index, "cannot open " + fopts.path);
    }

    TrialResult result;
    {
      sim::TrialObsScope sinks(&metrics, flight.get());
      try {
        result = run_campaign_trial(*ctx.spec, index);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "campaign worker: trial %llu failed: %s\n",
                     static_cast<unsigned long long>(index), e.what());
        _exit(3);
      }
    }

    // Artifacts first, result record second: after a process crash, "in
    // the journal" implies "artifacts written" (not after a power cut:
    // neither artifact is fsync'd; see worker.h).
    if (flight != nullptr && !flight->close()) {
      artifact_failed(index, "cannot write " + flight->path());
    }
    std::string error;
    if (!metrics.save_binary(trial_metrics_path(ctx.artifacts_dir, index),
                             &error)) {
      artifact_failed(index, error);
    }

    write_line_or_die(ctx.res_fd, encode_trial_record(result) + "\n");
  }
  _exit(0);  // command pipe closed: supervisor is done with us
}

}  // namespace satin::campaign
