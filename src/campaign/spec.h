// Declarative campaign specs: a fleet of simulated devices as one file.
//
// A campaign is N independent duel trials — platform config, SATIN knobs,
// attacker mix, fault plan, trial count, root seed — described as JSON and
// executed by the supervisor/worker runtime (campaign/supervisor.h).
// Validation is fail-fast: every type mismatch, out-of-range value,
// unknown key and malformed fault-plan string dies at parse time with a
// `file:line:col` diagnostic, never mid-campaign.
//
// Determinism contract: a trial's entire input is (spec, trial index).
// Per-trial seeds come from sim::TrialSeedSeq(root_seed), so any worker
// count, crash/retry history or resume point replays a
// trial bit-identically — the property every crash-identity gate and the
// journal's resume path rely on.
//
//   {
//     "name": "storm-sweep",
//     "trials": 64,
//     "root_seed": 99,
//     "jobs": 4,
//     "trial_timeout_s": 120.0,
//     "max_retries": 2,
//     "platform": {"num_little": 4, "num_big": 2, "seed": 5936453},
//     "satin":    {"tgoal_s": 57.0, "randomize_wake": true,
//                  "resilience": {"watchdog": true, "max_scan_retries": 2}},
//     "duel":     {"rounds_target": 57},
//     "attacker": {"rearm_delay_s": 0.02, "threshold_s": 1.8e-3},
//     "faults":   "seed=9,bitflip@10s+60s:p=0.12",
//     "faults_reseed": true
//   }
#pragma once

#include <cstdint>
#include <string>

#include "campaign/json.h"
#include "scenario/experiments.h"

namespace satin::campaign {

struct CampaignSpec {
  std::string name = "campaign";
  std::uint64_t trials = 1;
  std::uint64_t root_seed = 0x5A71A57ull;
  int jobs = 1;                   // worker processes
  double trial_timeout_s = 120.0; // host wall time before a trial is killed
  int max_retries = 2;            // re-dispatches per trial before giving up
  // Accepted and range-checked for old specs, but inert: every trial
  // draws through the batched pipeline (hw::PlatformConfig::draw_mode)
  // whatever its value. NOT folded into content_hash(), so a resume may
  // change it.
  int batch = 1;

  scenario::ScenarioConfig scenario;
  // True when the spec pinned platform.seed: trial 0 keeps it (the
  // run-of-record convention benches use); other trials always derive
  // their platform seed from (root_seed, index).
  bool pin_first_platform_seed = false;

  scenario::DuelConfig duel;

  // Fault plan spec string (src/fault/plan.h grammar); validated at parse
  // time, armed per trial. Empty = fault-free.
  std::string faults;
  // Derive a per-trial injector seed from (root_seed, index) instead of
  // running the same storm in every trial.
  bool faults_reseed = false;

  // FNV-1a over the canonical spec content; the journal stores it so a
  // resume against an edited spec fails fast instead of mixing results.
  std::uint64_t content_hash() const;
};

// Parses and validates a spec document; throws JsonError with positioned
// diagnostics on any problem. `source` labels errors (usually the path).
CampaignSpec parse_campaign_spec(const std::string& text,
                                 const std::string& source);
CampaignSpec load_campaign_spec(const std::string& path);

}  // namespace satin::campaign
