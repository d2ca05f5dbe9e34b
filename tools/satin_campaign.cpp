// satin_campaign — declarative Monte-Carlo campaign runner.
//
//   satin_campaign run      SPEC.json [flags]   run (creates/extends journal)
//   satin_campaign resume   SPEC.json [flags]   like run, but refuses to start
//                                               without an existing journal
//   satin_campaign status   JOURNAL             progress peek (no spec needed)
//   satin_campaign validate SPEC.json           parse + validate, print hash
//
// Flags for run/resume (plus ObsSession's --metrics= / --metrics-stable /
// --flight= / --trace=):
//   --journal=PATH    journal file     (default: SPEC + ".journal")
//   --out=PATH        stats JSON       (default: SPEC + ".stats.json")
//   --jobs=N          worker processes (default: spec's `jobs`)
//   --branches=N      COW fork branch group size (default: spec's
//                     `branches`; 0 = the persistent worker pool)
//   --shard=N         in-process lockstep shard size (default: spec's
//                     `shard`; 0 = the persistent worker pool)
//   --timeout=SECS    per-trial wedge timeout (default: spec's)
//   --max-retries=N   per-trial retry budget  (default: spec's)
//   --chaos-kill-trial=I / --chaos-hang-trial=I / --chaos-kill-after=N
//                     deterministic crash injection for the CI audit
//
// Exit codes: 0 = campaign complete, 2 = usage / spec / journal error,
// 3 = campaign finished DEGRADED (some trials permanently failed; partial
// stats were still written, marked "degraded": true).
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "campaign/journal.h"
#include "campaign/spec.h"
#include "campaign/supervisor.h"
#include "obs/session.h"

namespace {

using satin::campaign::CampaignJournal;
using satin::campaign::CampaignOptions;
using satin::campaign::CampaignOutcome;
using satin::campaign::CampaignSpec;

int usage() {
  std::fprintf(stderr,
               "usage: satin_campaign run      SPEC.json [--journal=P] "
               "[--out=P] [--jobs=N] [--branches=N] [--shard=N] "
               "[--timeout=S] [--max-retries=N]\n"
               "       satin_campaign resume   SPEC.json [same flags]\n"
               "       satin_campaign status   JOURNAL\n"
               "       satin_campaign validate SPEC.json\n");
  return 2;
}

// Strips "--<key>=<value>" from argv, returning the value ("" if absent).
std::string take_flag(int& argc, char** argv, const char* key) {
  const std::string prefix = std::string("--") + key + "=";
  std::string value;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      value = argv[i] + prefix.size();
      continue;
    }
    argv[out++] = argv[i];
  }
  argv[out] = nullptr;
  argc = out;
  return value;
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

// `jobs_override` and `branches_override` carry ObsSession's parsed
// --jobs= and --branches= values (ObsSession consumes both flags before
// the subcommand sees argv); 0 / -1 = flag absent, defer to the spec.
int cmd_run(int argc, char** argv, bool resume, int jobs_override,
            int branches_override) {
  CampaignOptions options;
  options.require_existing_journal = resume;
  options.jobs = jobs_override;
  options.branches = branches_override;
  options.journal_path = take_flag(argc, argv, "journal");
  options.stats_path = take_flag(argc, argv, "out");
  const std::string shard = take_flag(argc, argv, "shard");
  if (!shard.empty()) options.shard = std::atoi(shard.c_str());
  const std::string timeout = take_flag(argc, argv, "timeout");
  const std::string retries = take_flag(argc, argv, "max-retries");
  const std::string kill_trial = take_flag(argc, argv, "chaos-kill-trial");
  const std::string hang_trial = take_flag(argc, argv, "chaos-hang-trial");
  const std::string kill_after = take_flag(argc, argv, "chaos-kill-after");
  if (!timeout.empty()) options.trial_timeout_s = std::atof(timeout.c_str());
  if (!retries.empty()) options.max_retries = std::atoi(retries.c_str());
  if (!kill_trial.empty()) {
    options.chaos_kill_trial = std::strtoll(kill_trial.c_str(), nullptr, 10);
  }
  if (!hang_trial.empty()) {
    options.chaos_hang_trial = std::strtoll(hang_trial.c_str(), nullptr, 10);
  }
  if (!kill_after.empty()) {
    options.chaos_supervisor_kill_after =
        std::strtoull(kill_after.c_str(), nullptr, 10);
  }
  if (argc != 2) return usage();
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
  // Installs --metrics= / --metrics-stable / --flight= / --trace= sinks
  // for this (supervisor) thread; the campaign merges worker artifacts
  // into them in index order before the session flushes at exit.
  satin::obs::ObsSession session(argc, argv);
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "run" || cmd == "resume") {
    // Shift the subcommand out so cmd_run sees SPEC at argv[1].
    for (int i = 1; i + 1 < argc; ++i) argv[i] = argv[i + 1];
    --argc;
    argv[argc] = nullptr;
    return cmd_run(argc, argv, cmd == "resume",
                   session.jobs_requested() ? session.jobs() : 0,
                   session.branches_requested() ? session.branches() : -1);
  }
  if (cmd == "status") {
    if (argc != 3) return usage();
    return cmd_status(argv[2]);
  }
  if (cmd == "validate") {
    if (argc != 3) return usage();
    return cmd_validate(argv[2]);
  }
  return usage();
}
