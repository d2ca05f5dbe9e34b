#include "campaign/supervisor.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <type_traits>
#include <vector>

#include <poll.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/trial.h"
#include "campaign/worker.h"
#include "obs/file_io.h"
#include "obs/flight/audit.h"
#include "obs/flight/recorder.h"
#include "obs/metrics.h"
#include "sim/seed_seq.h"

namespace satin::campaign {

namespace {

// A slot is retired (pool shrink) after this many consecutive crashes:
// at that point the crashes are systematic, not bad luck, and respawning
// would burn every trial's retry budget on a doomed slot.
constexpr int kSlotCrashLimit = 3;
constexpr int kBackoffBaseMs = 25;
constexpr int kBackoffCapMs = 500;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct WorkerSlot {
  pid_t pid = -1;
  int cmd_fd = -1;  // supervisor writes commands here
  int res_fd = -1;  // supervisor reads heartbeats/results here
  std::optional<std::uint64_t> inflight;  // the trial it is running
  std::string read_buf;
  double last_activity = 0.0;
  int consecutive_crashes = 0;
  bool alive = false;
  bool retired = false;
  bool quitting = false;  // sent "Q", EOF is expected, not a crash
};

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

std::string format_double17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string format_campaign_stats(
    const CampaignSpec& spec, const CampaignOutcome& outcome,
    const std::map<std::uint64_t, TrialResult>& completed) {
  std::string out = "{\n";
  char buf[192];
  out += "  \"schema\": \"satin-campaign-stats/1\",\n";
  out += "  \"name\": \"" + obs::json_escape(spec.name) + "\",\n";
  std::snprintf(buf, sizeof(buf), "  \"spec_hash\": \"%016" PRIx64 "\",\n",
                spec.content_hash());
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"trials\": %" PRIu64 ",\n", spec.trials);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"root_seed\": %" PRIu64 ",\n",
                spec.root_seed);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"completed\": %zu,\n", completed.size());
  out += buf;
  out += std::string("  \"degraded\": ") +
         (outcome.degraded ? "true" : "false") + ",\n";
  out += "  \"failed_trials\": [";
  for (std::size_t i = 0; i < outcome.failed_trials.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(outcome.failed_trials[i]);
  }
  out += "],\n";

  // Aggregates fold in index order (std::map iteration), so any schedule
  // that completed the same trial set writes the same bytes. Every field
  // visit_trial_fields gives a stats name is one sum: the integer sums in
  // field order, then the always-caught count, then the double sums.
  struct Sum {
    const char* name;
    bool seconds;  // a double sum
    std::uint64_t count = 0;
    double total = 0.0;
  };
  std::vector<Sum> sums;
  TrialResult blank;
  visit_trial_fields(blank, [&sums](const char*, const char* stats,
                                    auto&& value) {
    using T = std::decay_t<decltype(value)>;
    if (stats != nullptr) sums.push_back({stats, std::is_same_v<T, double>});
  });
  std::uint64_t always_caught = 0, gap_count = 0;
  double gap_sum = 0.0;
  for (auto [index, r] : completed) {
    (void)index;
    auto sum = sums.begin();
    visit_trial_fields(r, [&sum](const char*, const char* stats,
                                 auto&& value) {
      using T = std::decay_t<decltype(value)>;
      if (stats == nullptr) return;
      if constexpr (std::is_same_v<T, double>) sum->total += value;
      if constexpr (std::is_same_v<T, std::uint64_t>) sum->count += value;
      ++sum;
    });
    if (r.report.satin_always_caught()) ++always_caught;
    if (r.report.avg_target_gap_s > 0.0) {
      gap_sum += r.report.avg_target_gap_s;
      ++gap_count;
    }
  }
  out += "  \"aggregate\": {\n";
  const auto line = [&out](const char* key, const std::string& value) {
    out += std::string("    \"") + key + "\": " + value + ",\n";
  };
  for (const Sum& sum : sums) {
    if (!sum.seconds) line(sum.name, std::to_string(sum.count));
  }
  line("always_caught_trials", std::to_string(always_caught));
  for (const Sum& sum : sums) {
    if (sum.seconds) line(sum.name, format_double17(sum.total));
  }
  out += "    \"avg_target_gap_s_mean\": " +
         format_double17(gap_count > 0
                             ? gap_sum / static_cast<double>(gap_count)
                             : 0.0) +
         "\n  },\n";

  out += "  \"per_trial\": [\n";
  bool first = true;
  for (const auto& [index, r] : completed) {
    if (!first) out += ",\n";
    first = false;
    const scenario::DuelReport& d = r.report;
    std::snprintf(buf, sizeof(buf),
                  "    {\"i\": %" PRIu64 ", \"seed\": \"%016" PRIx64
                  "\", \"rounds\": %" PRIu64 ", \"taa\": %" PRIu64
                  ", \"tar\": %" PRIu64 ", \"conf\": %" PRIu64
                  ", \"trans\": %" PRIu64 ", \"inj\": %" PRIu64,
                  index, r.seed, d.rounds, d.target_area_alarms,
                  d.target_area_rounds, d.confirmed_alarms, d.transient_alarms,
                  r.faults_injected);
    out += buf;
    out += ", \"sim_s\": " + format_double17(d.sim_seconds) + "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

namespace {

class Supervisor {
 public:
  Supervisor(const CampaignSpec& spec, const CampaignOptions& options)
      : spec_(spec), options_(options) {
    jobs_ = options.jobs > 0 ? options.jobs : spec.jobs;
    timeout_s_ = options.trial_timeout_s > 0.0 ? options.trial_timeout_s
                                               : spec.trial_timeout_s;
    max_retries_ = options.max_retries >= 0 ? options.max_retries
                                            : spec.max_retries;
    chaos_kill_armed_ = options.chaos_kill_trial >= 0;
    chaos_hang_armed_ = options.chaos_hang_trial >= 0;
  }

  CampaignOutcome run() {
    CampaignOutcome outcome;
    outcome.trials = spec_.trials;

    if (options_.journal_path.empty()) {
      outcome.error = "no journal path";
      return outcome;
    }
    // A stats path the final write would refuse fails here, before the
    // journal exists and any trial runs.
    std::string error;
    if (!options_.stats_path.empty() &&
        !obs::check_replaceable(options_.stats_path, &error)) {
      outcome.error = error;
      return outcome;
    }
    if (options_.require_existing_journal) {
      struct stat st{};
      if (::stat(options_.journal_path.c_str(), &st) != 0) {
        outcome.error = options_.journal_path +
                        ": no journal to resume (use `run` to start)";
        return outcome;
      }
    }

    if (!journal_.open(options_.journal_path, spec_, &error)) {
      outcome.error = error;
      return outcome;
    }
    outcome.resumed = journal_.completed().size();
    outcome.quarantined = journal_.quarantined();

    for (std::uint64_t i = 0; i < spec_.trials; ++i) {
      if (journal_.completed().count(i) == 0) pending_.push_back(i);
    }

    // Flight recordings can be arbitrarily large, so, unlike the metrics
    // snapshots (campaign/worker.h), they only exist when the session
    // asks.
    want_flight_ = obs::flight() != nullptr;
    artifacts_dir_ = options_.journal_path + ".d";
    if (::mkdir(artifacts_dir_.c_str(), 0777) != 0 && errno != EEXIST) {
      outcome.error = artifacts_dir_ + ": cannot create artifacts dir";
      return outcome;
    }

    if (!pending_.empty()) {
      // Writing into a dead worker's pipe must surface as EPIPE on the
      // write, not kill the supervisor.
      signal(SIGPIPE, SIG_IGN);
      const int jobs = static_cast<int>(std::min<std::uint64_t>(
          static_cast<std::uint64_t>(jobs_), pending_.size()));
      slots_.resize(static_cast<std::size_t>(jobs));
      for (WorkerSlot& slot : slots_) spawn(slot, outcome);
      event_loop(outcome);
      shutdown_workers();
    }

    // Permanently failed trials (retries exhausted or pool emptied).
    for (std::uint64_t idx : failed_) outcome.failed_trials.push_back(idx);
    for (std::uint64_t idx : pending_) outcome.failed_trials.push_back(idx);
    std::sort(outcome.failed_trials.begin(), outcome.failed_trials.end());
    outcome.degraded = !outcome.failed_trials.empty();
    outcome.completed = journal_.completed().size();

    merge_artifacts();
    publish_metrics(outcome);

    if (!options_.stats_path.empty()) {
      const std::string body =
          format_campaign_stats(spec_, outcome, journal_.completed());
      if (!obs::replace_file(options_.stats_path, body, /*sync=*/true,
                             &error)) {
        outcome.error = error;
        return outcome;
      }
    }
    outcome.ok = true;
    return outcome;
  }

 private:
  void spawn(WorkerSlot& slot, CampaignOutcome& outcome) {
    int cmd_pipe[2];  // supervisor -> worker
    int res_pipe[2];  // worker -> supervisor
    if (::pipe(cmd_pipe) != 0) return;
    if (::pipe(res_pipe) != 0) {
      ::close(cmd_pipe[0]);
      ::close(cmd_pipe[1]);
      return;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(cmd_pipe[0]);
      ::close(cmd_pipe[1]);
      ::close(res_pipe[0]);
      ::close(res_pipe[1]);
      return;
    }
    if (pid == 0) {
      // Child: close the supervisor ends (and every other slot's fds so
      // one worker's death can't be masked by a sibling holding pipes).
      ::close(cmd_pipe[1]);
      ::close(res_pipe[0]);
      for (const WorkerSlot& other : slots_) {
        if (other.cmd_fd >= 0) ::close(other.cmd_fd);
        if (other.res_fd >= 0) ::close(other.res_fd);
      }
      WorkerContext ctx;
      ctx.spec = &spec_;
      ctx.cmd_fd = cmd_pipe[0];
      ctx.res_fd = res_pipe[1];
      ctx.artifacts_dir = artifacts_dir_;
      ctx.want_flight = want_flight_;
      worker_main(ctx);  // never returns
    }
    ::close(cmd_pipe[0]);
    ::close(res_pipe[1]);
    slot.pid = pid;
    slot.cmd_fd = cmd_pipe[1];
    slot.res_fd = res_pipe[0];
    slot.alive = true;
    slot.quitting = false;
    slot.read_buf.clear();
    slot.inflight.reset();
    slot.last_activity = now_seconds();
    ++outcome.workers_spawned;
  }

  bool send_command(WorkerSlot& slot, const std::string& line) {
    const char* p = line.data();
    std::size_t left = line.size();
    while (left > 0) {
      const ssize_t n = ::write(slot.cmd_fd, p, left);
      if (n <= 0) return false;
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    return true;
  }

  // Hands an idle worker the next pending trial, in global index order.
  // Dispatch order is deterministic; completion order is racy; nothing
  // downstream reads completion order.
  void top_up(WorkerSlot& slot, CampaignOutcome& outcome) {
    if (!slot.alive || slot.retired || slot.inflight || pending_.empty()) {
      return;
    }
    const std::uint64_t idx = pending_.front();
    std::string cmd = "T " + std::to_string(idx);
    if (chaos_kill_armed_ &&
        idx == static_cast<std::uint64_t>(options_.chaos_kill_trial)) {
      cmd += " kill";
      chaos_kill_armed_ = false;  // first dispatch only: the retry runs
    }
    if (chaos_hang_armed_ &&
        idx == static_cast<std::uint64_t>(options_.chaos_hang_trial)) {
      cmd += " hang";
      chaos_hang_armed_ = false;
    }
    if (!send_command(slot, cmd + "\n")) {
      // Pipe already broken; the poll loop will reap the crash.
      return;
    }
    pending_.pop_front();
    slot.inflight = idx;
    if (was_dispatched_.count(idx) != 0) ++outcome.retries;
    was_dispatched_.insert(idx);
  }

  void handle_crash(WorkerSlot& slot, CampaignOutcome& outcome,
                    bool timed_out) {
    slot.alive = false;
    close_fd(slot.cmd_fd);
    close_fd(slot.res_fd);
    if (slot.pid > 0) {
      if (timed_out) ::kill(slot.pid, SIGKILL);
      int status = 0;
      ::waitpid(slot.pid, &status, 0);
      slot.pid = -1;
    }
    ++outcome.worker_crashes;
    if (timed_out) ++outcome.worker_timeouts;
    ++slot.consecutive_crashes;

    // Return the in-flight trial to the FRONT of the queue, preserving
    // index order, with its retry budget decremented.
    if (slot.inflight) {
      const std::uint64_t idx = *slot.inflight;
      ++outcome.redispatches;
      if (++retry_count_[idx] > max_retries_) {
        failed_.insert(idx);
        std::fprintf(stderr,
                     "campaign: trial %" PRIu64 " failed %d times, giving up\n",
                     idx, max_retries_ + 1);
      } else {
        pending_.push_front(idx);
      }
      slot.inflight.reset();
    }

    if (slot.consecutive_crashes >= kSlotCrashLimit) {
      slot.retired = true;
      ++outcome.pool_shrinks;
      std::fprintf(stderr,
                   "campaign: worker slot retired after %d consecutive "
                   "crashes (pool shrinks to %zu)\n",
                   slot.consecutive_crashes, live_slots());
      return;
    }
    // Exponential backoff before the respawn: a crash loop with a
    // systematic cause shouldn't melt the host while it burns its budget.
    const int shift = std::min(slot.consecutive_crashes - 1, 8);
    const int backoff_ms =
        std::min(kBackoffCapMs, kBackoffBaseMs << shift);
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    spawn(slot, outcome);
  }

  std::size_t live_slots() const {
    std::size_t n = 0;
    for (const WorkerSlot& s : slots_) {
      if (s.alive && !s.retired) ++n;
    }
    return n;
  }

  bool work_remains() const {
    if (!pending_.empty()) return true;
    for (const WorkerSlot& s : slots_) {
      if (s.inflight) return true;
    }
    return false;
  }

  void handle_line(WorkerSlot& slot, const std::string& line,
                   CampaignOutcome& outcome) {
    slot.last_activity = now_seconds();
    if (line.compare(0, 2, "B ") == 0) return;  // heartbeat: trial started
    TrialResult result;
    std::string why;
    if (!decode_trial_record(line, result, &why)) {
      // A worker sending garbage is a crash in slow motion.
      std::fprintf(stderr, "campaign: bad record from worker: %s\n",
                   why.c_str());
      handle_crash(slot, outcome, /*timed_out=*/false);
      return;
    }
    if (slot.inflight != result.index) {
      std::fprintf(stderr, "campaign: unexpected record for trial %" PRIu64
                           "\n", result.index);
      handle_crash(slot, outcome, /*timed_out=*/false);
      return;
    }
    slot.inflight.reset();
    slot.consecutive_crashes = 0;
    if (journal_.completed().count(result.index) == 0) {
      if (!journal_.append(result)) {
        std::fprintf(stderr, "campaign: journal append failed for trial %"
                             PRIu64 "\n", result.index);
        failed_.insert(result.index);
        return;
      }
      if (options_.chaos_supervisor_kill_after > 0 &&
          journal_.appended() >= options_.chaos_supervisor_kill_after) {
        // Chaos: die exactly like a power cut — after the fsync'd append,
        // before anything else. The resume must finish the campaign
        // byte-identically.
        raise(SIGKILL);
      }
    }
  }

  void event_loop(CampaignOutcome& outcome) {
    while (work_remains()) {
      if (live_slots() == 0) {
        // Pool died entirely. Whatever is left becomes the degraded set.
        for (std::uint64_t idx : pending_) failed_.insert(idx);
        pending_.clear();
        break;
      }
      for (WorkerSlot& slot : slots_) top_up(slot, outcome);

      std::vector<pollfd> fds;
      std::vector<std::size_t> fd_slot;
      double next_deadline = now_seconds() + 60.0;
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        WorkerSlot& slot = slots_[i];
        if (!slot.alive) continue;
        fds.push_back(pollfd{slot.res_fd, POLLIN, 0});
        fd_slot.push_back(i);
        if (slot.inflight) {
          next_deadline =
              std::min(next_deadline, slot.last_activity + timeout_s_);
        }
      }
      if (fds.empty()) continue;
      const double wait_s = next_deadline - now_seconds();
      const int timeout_ms =
          wait_s <= 0.0 ? 0
                        : static_cast<int>(std::min(wait_s * 1000.0, 60000.0)) +
                              10;
      const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
      if (ready < 0 && errno != EINTR) break;

      for (std::size_t k = 0; k < fds.size(); ++k) {
        if (ready <= 0) break;
        if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        WorkerSlot& slot = slots_[fd_slot[k]];
        if (!slot.alive) continue;  // crashed earlier in this sweep
        char chunk[4096];
        const ssize_t n = ::read(slot.res_fd, chunk, sizeof(chunk));
        if (n <= 0) {
          handle_crash(slot, outcome, /*timed_out=*/false);
          continue;
        }
        slot.read_buf.append(chunk, static_cast<std::size_t>(n));
        std::size_t nl;
        while (slot.alive &&
               (nl = slot.read_buf.find('\n')) != std::string::npos) {
          const std::string line = slot.read_buf.substr(0, nl);
          slot.read_buf.erase(0, nl + 1);
          handle_line(slot, line, outcome);
        }
      }

      // Wedge detection: a worker with in-flight work and no heartbeat or
      // result within the timeout is killed and treated as crashed.
      const double now = now_seconds();
      for (WorkerSlot& slot : slots_) {
        if (slot.alive && slot.inflight &&
            now - slot.last_activity > timeout_s_) {
          std::fprintf(stderr,
                       "campaign: worker pid %d timed out on trial %" PRIu64
                       " after %.1fs\n",
                       static_cast<int>(slot.pid), *slot.inflight,
                       timeout_s_);
          handle_crash(slot, outcome, /*timed_out=*/true);
        }
      }
    }
  }

  void shutdown_workers() {
    for (WorkerSlot& slot : slots_) {
      if (!slot.alive) continue;
      slot.quitting = true;
      send_command(slot, "Q\n");
      close_fd(slot.cmd_fd);
    }
    for (WorkerSlot& slot : slots_) {
      if (slot.pid > 0) {
        int status = 0;
        ::waitpid(slot.pid, &status, 0);
        slot.pid = -1;
      }
      close_fd(slot.cmd_fd);
      close_fd(slot.res_fd);
      slot.alive = false;
    }
  }

  // Folds per-trial obs artifacts into the calling thread's session sinks
  // in strict index order — the cross-process twin of TrialRunner's
  // submission-order merge, and the reason a campaign's --metrics and
  // --flight outputs are byte-identical for any schedule.
  void merge_artifacts() {
    obs::MetricsRegistry* session_metrics = obs::metrics();
    obs::FlightRecorder* session_flight = obs::flight();
    if ((session_metrics == nullptr && session_flight == nullptr) ||
        artifacts_dir_.empty()) {
      return;
    }
    const sim::TrialSeedSeq seeds(spec_.root_seed);
    for (const auto& [index, result] : journal_.completed()) {
      (void)result;
      if (session_metrics != nullptr) {
        const std::string path = trial_metrics_path(artifacts_dir_, index);
        std::string error;
        if (!session_metrics->load_merge_binary(path, &error)) {
          std::fprintf(stderr, "campaign: %s (metrics gap)\n", error.c_str());
          ++artifacts_missing_;
        }
      }
      if (session_flight != nullptr) {
        std::string error;
        if (!obs::append_trial_file(*session_flight, index,
                                    seeds.seed_for(index),
                                    trial_flight_path(artifacts_dir_, index),
                                    error)) {
          std::fprintf(stderr, "campaign: %s (flight gap)\n", error.c_str());
          ++artifacts_missing_;
        }
      }
    }
  }

  void publish_metrics(const CampaignOutcome& outcome) {
    obs::MetricsRegistry* registry = obs::metrics();
    if (registry == nullptr) return;
    // Deterministic facts of the completed campaign: counters, part of
    // the stable snapshot.
    registry->counter("campaign.trials").inc(outcome.trials);
    registry->counter("campaign.trials_completed").inc(outcome.completed);
    registry->counter("campaign.trials_failed")
        .inc(outcome.failed_trials.size());
    // Runtime history (how bumpy the road was): volatile gauges, omitted
    // by --metrics-stable so crash-identity diffs stay byte-exact.
    const auto vgauge = [registry](const char* name, double v) {
      obs::Gauge& g = registry->gauge(name);
      g.set(v);
      g.mark_volatile();
    };
    vgauge("campaign.retries", static_cast<double>(outcome.retries));
    vgauge("campaign.redispatches", static_cast<double>(outcome.redispatches));
    vgauge("campaign.worker_crashes",
           static_cast<double>(outcome.worker_crashes));
    vgauge("campaign.worker_timeouts",
           static_cast<double>(outcome.worker_timeouts));
    vgauge("campaign.workers_spawned",
           static_cast<double>(outcome.workers_spawned));
    vgauge("campaign.pool_shrinks", static_cast<double>(outcome.pool_shrinks));
    vgauge("campaign.trials_resumed", static_cast<double>(outcome.resumed));
    vgauge("campaign.journal_quarantined",
           static_cast<double>(outcome.quarantined));
    vgauge("campaign.artifacts_missing",
           static_cast<double>(artifacts_missing_));
  }

  const CampaignSpec& spec_;
  const CampaignOptions& options_;
  int jobs_ = 1;
  double timeout_s_ = 120.0;
  int max_retries_ = 2;
  bool chaos_kill_armed_ = false;
  bool chaos_hang_armed_ = false;

  CampaignJournal journal_;
  std::deque<std::uint64_t> pending_;
  std::vector<WorkerSlot> slots_;
  std::map<std::uint64_t, int> retry_count_;
  std::set<std::uint64_t> was_dispatched_;
  std::set<std::uint64_t> failed_;
  std::string artifacts_dir_;
  bool want_flight_ = false;
  std::uint64_t artifacts_missing_ = 0;
};

}  // namespace

CampaignOutcome run_campaign(const CampaignSpec& spec,
                             const CampaignOptions& options) {
  Supervisor supervisor(spec, options);
  return supervisor.run();
}

}  // namespace satin::campaign
