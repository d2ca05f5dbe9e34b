// Campaign supervisor: process-isolated fan-out with crash identity.
//
// The supervisor forks `jobs` worker processes and feeds each one trial
// index at a time over a pipe pair; workers run trials (campaign/trial.h)
// against their own per-trial obs sinks, persist the obs artifacts, and
// send back checksummed result records which the supervisor validates and
// appends to the journal (fsync'd) before counting the trial done.
//
// Failure model, in order of escalation:
//  * worker crash (any exit, SIGKILL included) — its in-flight trial
//    goes back to the front of the queue; each index retries up to
//    max_retries times with exponential backoff on the respawned slot;
//  * worker wedge — no heartbeat ("B <idx>") or result within
//    trial_timeout_s gets the worker SIGKILLed, then the crash path;
//  * repeated crashes on one slot — after 3 consecutive crashes the slot
//    is retired (pool shrink) instead of respawned;
//  * everything retired / retries exhausted — the campaign still emits
//    its stats, with `degraded: true` and the failed trial list, instead
//    of hanging or dying empty-handed.
//
// Crash identity: trials are pure functions of (spec, index) and
// aggregation is strictly index-ordered, so ANY schedule — jobs count,
// crashes, retries, re-dispatches, SIGKILL + resume — ends
// in byte-identical stats and (stable) metrics. CI enforces this
// literally, with a chaos-injected run diffed against a jobs=1
// uninterrupted one. The chaos_* knobs exist for that gate: they make a
// worker kill or hang itself on the FIRST dispatch of a chosen trial, and
// the supervisor SIGKILL itself after N journal appends — deterministic
// crashes, no sleep-and-hope process hunting in CI scripts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/journal.h"
#include "campaign/spec.h"

namespace satin::campaign {

struct CampaignOptions {
  std::string journal_path;       // required
  std::string stats_path;         // "" = don't write stats
  // Runtime overrides; 0/-1 = take the spec's value. Never part of the
  // spec content hash, so a resume may change them freely.
  int jobs = 0;
  double trial_timeout_s = 0.0;
  int max_retries = -1;
  // `resume` refuses to start a fresh journal; `run` creates one.
  bool require_existing_journal = false;

  // Chaos knobs (CI crash audits; -1 / 0 = off).
  std::int64_t chaos_kill_trial = -1;   // worker SIGKILLs itself on first
                                        // dispatch of this trial index
  std::int64_t chaos_hang_trial = -1;   // worker hangs on first dispatch
                                        // (exercises the timeout path)
  std::uint64_t chaos_supervisor_kill_after = 0;  // raise(SIGKILL) after
                                                  // this many appends
};

struct CampaignOutcome {
  bool ok = false;          // campaign ran (possibly degraded)
  bool degraded = false;    // some trials failed permanently
  std::string error;        // set when !ok

  std::uint64_t trials = 0;
  std::uint64_t completed = 0;
  std::uint64_t resumed = 0;      // completed trials replayed from journal
  std::uint64_t quarantined = 0;  // damaged journal lines dropped on open
  std::vector<std::uint64_t> failed_trials;

  // Runtime (host-dependent) bookkeeping; exported as volatile
  // campaign.* gauges so --metrics-stable snapshots stay identical
  // across crash histories.
  std::uint64_t retries = 0;       // trial re-dispatch decisions
  std::uint64_t redispatches = 0;  // in-flight indices returned to queue
  std::uint64_t worker_crashes = 0;
  std::uint64_t worker_timeouts = 0;
  std::uint64_t workers_spawned = 0;
  std::uint64_t pool_shrinks = 0;
};

// Runs (or resumes) a campaign. Journal and stats writes, worker
// lifecycle, obs artifact merging into the CALLING thread's installed
// sinks, and campaign.* metrics all happen here. Returns rather than
// throws: outcome.ok=false carries the reason.
CampaignOutcome run_campaign(const CampaignSpec& spec,
                             const CampaignOptions& options);

// Deterministic stats JSON (schema satin-campaign-stats/1), which
// run_campaign writes crash-safe and fsync'd (obs::replace_file). Exposed
// for tests.
std::string format_campaign_stats(const CampaignSpec& spec,
                                  const CampaignOutcome& outcome,
                                  const std::map<std::uint64_t, TrialResult>&
                                      completed);

}  // namespace satin::campaign
