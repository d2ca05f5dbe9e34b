// satin_campaign — declarative Monte-Carlo campaign runner.
//
//   satin_campaign run      SPEC.json [flags]   run (creates/extends journal)
//   satin_campaign resume   SPEC.json [flags]   like run, but refuses to start
//                                               without an existing journal
//   satin_campaign status   JOURNAL             progress peek (no spec needed)
//   satin_campaign validate SPEC.json           parse + validate, print hash
//
// Flags for run/resume (plus ObsSession's --metrics= / --metrics-stable /
// --flight=):
//   --journal=PATH    journal file     (default: SPEC + ".journal")
//   --out=PATH        stats JSON       (default: SPEC + ".stats.json")
//   --jobs=N          worker processes (default: spec's `jobs`;
//                     0 = one per hardware thread)
//   --timeout=SECS    per-trial wedge timeout (default: spec's)
//   --max-retries=N   per-trial retry budget  (default: spec's)
//   --chaos-kill-trial=I / --chaos-hang-trial=I / --chaos-kill-after=N
//                     deterministic crash injection for the CI audit
//
// A flag value that is not a whole number in range (a positive number of
// seconds for --timeout) is a usage error, and so is any argument left
// over once the flags and SPEC are taken; both name the argument, before
// any journal exists. Per-trial event streams come from --flight= (read
// them, or draw them for Perfetto, with satin_flightool), per-trial
// counters from --metrics=.
//
// Exit codes: 0 = campaign complete, 2 = usage / spec / journal error,
// 3 = campaign finished DEGRADED (some trials permanently failed; partial
// stats were still written, marked "degraded": true).
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "campaign/journal.h"
#include "campaign/spec.h"
#include "campaign/supervisor.h"
#include "obs/session.h"
#include "sim/parallel.h"

namespace {

using satin::campaign::CampaignJournal;
using satin::campaign::CampaignOptions;
using satin::campaign::CampaignOutcome;
using satin::campaign::CampaignSpec;

int usage() {
  std::fprintf(stderr,
               "usage: satin_campaign run      SPEC.json [--journal=P] "
               "[--out=P] [--jobs=N] [--timeout=S] [--max-retries=N]\n"
               "       satin_campaign resume   SPEC.json [same flags]\n"
               "       satin_campaign status   JOURNAL\n"
               "       satin_campaign validate SPEC.json\n");
  return 2;
}

// Strips --timeout=<seconds> from argv into `out` (left alone when
// absent). A value that is not a positive finite number stays in argv,
// where one_positional names it.
void take_timeout(int& argc, char** argv, double& out) {
  satin::obs::take_flag(argc, argv, "timeout", [&out](const std::string& text) {
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !(value > 0.0) ||
        !std::isfinite(value)) {
      std::fprintf(stderr,
                   "satin_campaign: --timeout=%s: want a positive number of "
                   "seconds\n",
                   text.c_str());
      return true;
    }
    out = value;
    return false;
  });
}

// True when argv[at] is the subcommand's one positional argument and
// nothing is left over; otherwise prints the usage or names the leftover
// argument (a flag before the positional one included).
bool one_positional(int argc, char** argv, int at) {
  if (argc <= at) {
    usage();
    return false;
  }
  return !satin::obs::reject_unconsumed_args(
      argc, argv, argv[at][0] == '-' ? at : at + 1);
}

bool load_spec(const char* path, CampaignSpec& spec) {
  try {
    spec = satin::campaign::load_campaign_spec(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "satin_campaign: %s\n", e.what());
    return false;
  }
  return true;
}

int cmd_status(const char* journal_path) {
  CampaignJournal::Status status;
  std::string error;
  if (!CampaignJournal::read_status(journal_path, status, &error)) {
    std::fprintf(stderr, "satin_campaign: %s\n", error.c_str());
    return 2;
  }
  std::printf("journal      %s\n", journal_path);
  std::printf("spec_hash    %016" PRIx64 "\n", status.spec_hash);
  std::printf("root_seed    %" PRIu64 "\n", status.root_seed);
  std::printf("trials       %" PRIu64 "\n", status.trials);
  std::printf("completed    %" PRIu64 "\n", status.completed);
  std::printf("remaining    %" PRIu64 "\n",
              status.trials > status.completed
                  ? status.trials - status.completed
                  : 0);
  std::printf("quarantined  %" PRIu64 "\n", status.quarantined);
  return 0;
}

int cmd_validate(const char* spec_path) {
  CampaignSpec spec;
  if (!load_spec(spec_path, spec)) return 2;
  std::printf("ok: %s\n", spec_path);
  std::printf("name       %s\n", spec.name.c_str());
  std::printf("spec_hash  %016" PRIx64 "\n", spec.content_hash());
  std::printf("trials     %" PRIu64 "\n", spec.trials);
  std::printf("root_seed  %" PRIu64 "\n", spec.root_seed);
  std::printf("jobs       %d\n", spec.jobs);
  if (!spec.faults.empty()) {
    std::printf("faults     %s\n", spec.faults.c_str());
  }
  return 0;
}

int cmd_run(int argc, char** argv, bool resume) {
  using satin::obs::take_whole_number;
  CampaignOptions options;
  options.require_existing_journal = resume;
  options.journal_path = satin::obs::take_flag(argc, argv, "journal");
  options.stats_path = satin::obs::take_flag(argc, argv, "out");
  take_timeout(argc, argv, options.trial_timeout_s);
  if (const auto n = take_whole_number(argc, argv, "max-retries", 0, 16)) {
    options.max_retries = static_cast<int>(*n);
  }
  constexpr auto kMaxIndex = std::numeric_limits<std::int64_t>::max();
  if (const auto n =
          take_whole_number(argc, argv, "chaos-kill-trial", 0, kMaxIndex)) {
    options.chaos_kill_trial = static_cast<std::int64_t>(*n);
  }
  if (const auto n =
          take_whole_number(argc, argv, "chaos-hang-trial", 0, kMaxIndex)) {
    options.chaos_hang_trial = static_cast<std::int64_t>(*n);
  }
  if (const auto n = take_whole_number(argc, argv, "chaos-kill-after", 0,
                                       UINT64_MAX)) {
    options.chaos_supervisor_kill_after = *n;
  }
  // --jobs=0 asks for one worker per hardware thread; CampaignOptions
  // reads 0 (the flag absent) as "take the spec's value".
  options.jobs = satin::sim::TrialRunner::jobs_from_flag(
      take_whole_number(argc, argv, "jobs", 0, 256), /*fallback=*/0);
  if (!one_positional(argc, argv, 1)) return 2;
  const std::string spec_path = argv[1];

  CampaignSpec spec;
  if (!load_spec(spec_path.c_str(), spec)) return 2;
  if (options.journal_path.empty()) {
    options.journal_path = spec_path + ".journal";
  }
  if (options.stats_path.empty()) {
    options.stats_path = spec_path + ".stats.json";
  }

  const CampaignOutcome outcome = satin::campaign::run_campaign(spec, options);
  if (!outcome.ok) {
    std::fprintf(stderr, "satin_campaign: %s\n", outcome.error.c_str());
    return 2;
  }
  std::printf("campaign     %s\n", spec.name.c_str());
  std::printf("trials       %" PRIu64 "\n", outcome.trials);
  std::printf("completed    %" PRIu64 "\n", outcome.completed);
  std::printf("resumed      %" PRIu64 "\n", outcome.resumed);
  std::printf("quarantined  %" PRIu64 "\n", outcome.quarantined);
  std::printf("retries      %" PRIu64 "\n", outcome.retries);
  std::printf("redispatches %" PRIu64 "\n", outcome.redispatches);
  std::printf("crashes      %" PRIu64 " (%" PRIu64 " timeouts)\n",
              outcome.worker_crashes, outcome.worker_timeouts);
  std::printf("workers      %" PRIu64 " spawned, %" PRIu64 " slots retired\n",
              outcome.workers_spawned, outcome.pool_shrinks);
  std::printf("stats        %s\n", options.stats_path.c_str());
  if (outcome.degraded) {
    std::fprintf(stderr,
                 "satin_campaign: DEGRADED — %zu trial(s) permanently "
                 "failed; partial stats written\n",
                 outcome.failed_trials.size());
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Installs --metrics= / --metrics-stable / --flight= sinks for this
  // (supervisor) thread; the campaign merges worker artifacts into them
  // in index order before the session flushes at exit.
  satin::obs::ObsSession session(argc, argv);
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "run" || cmd == "resume") {
    // Shift the subcommand out so cmd_run sees SPEC at argv[1].
    for (int i = 1; i + 1 < argc; ++i) argv[i] = argv[i + 1];
    --argc;
    argv[argc] = nullptr;
    return cmd_run(argc, argv, cmd == "resume");
  }
  if (cmd == "status") {
    if (!one_positional(argc, argv, 2)) return 2;
    return cmd_status(argv[2]);
  }
  if (cmd == "validate") {
    if (!one_positional(argc, argv, 2)) return 2;
    return cmd_validate(argv[2]);
  }
  return usage();
}
