// One campaign trial: execution and the journal record codec.
//
// A trial's entire input is (CampaignSpec, index) — the per-trial seed is
// TrialSeedSeq(root_seed).seed_for(index), the fault plan optionally
// re-seeds from the same derivation — so run_campaign_trial() is a pure
// function of its arguments. That purity is what makes the runtime's
// crash story trivial: a retried, re-dispatched or resumed trial is just
// the same function call again, and byte-identical output follows.
//
// The journal stores one line per completed trial. Doubles travel as raw
// bit patterns (hex), not decimal, so encode(decode(line)) == line and a
// resumed aggregation sees exactly the bits the original worker computed.
// Every line carries an FNV-1a checksum over its body; a line whose
// checksum fails (torn write, bit rot, hostile edit) is quarantined by
// the journal loader and the trial simply re-runs.
#pragma once

#include <cstdint>
#include <string>

#include "campaign/spec.h"
#include "scenario/experiments.h"

namespace satin::campaign {

struct TrialResult {
  std::uint64_t index = 0;
  std::uint64_t seed = 0;
  scenario::DuelReport report;
  std::uint64_t faults_injected = 0;
};

// The trial seed, the one integer the record writes in hex.
struct HexField {
  std::uint64_t& value;
};

// Names every persisted field of `r` once, in record order, as
// visit(record_key, stats_name, value). `value` is a std::uint64_t&
// (decimal), an int& (signed decimal), a double& (its raw bits in hex) or
// a HexField. `stats_name` is the field's key in the stats file's
// `aggregate`, which sums it over the completed trials, or nullptr when
// the aggregate does not sum it. The record encoder and decoder and the
// aggregate all loop over this list, so a new DuelReport field is one
// line here.
template <typename Visit>
void visit_trial_fields(TrialResult& r, Visit&& visit) {
  scenario::DuelReport& d = r.report;
  visit("i", nullptr, r.index);
  visit("seed", nullptr, HexField{r.seed});
  visit("rounds", "rounds", d.rounds);
  visit("alarms", "alarms", d.alarms);
  visit("cycles", "full_cycles", d.full_cycles);
  visit("area", nullptr, d.target_area);
  visit("tar", "target_area_rounds", d.target_area_rounds);
  visit("taa", "target_area_alarms", d.target_area_alarms);
  visit("gap", nullptr, d.avg_target_gap_s);
  visit("stays", "secure_stays", d.secure_stays);
  visit("det", "prober_detections", d.prober_detections);
  visit("fp", "false_positives", d.false_positives);
  visit("fn", "false_negatives", d.false_negatives);
  visit("ev", "evasions_started", d.evasions_started);
  visit("rearms", "rearms", d.rearms);
  visit("sims", "sim_seconds_total", d.sim_seconds);
  visit("conf", "confirmed_alarms", d.confirmed_alarms);
  visit("trans", "transient_alarms", d.transient_alarms);
  visit("benign", "benign_confirmed_alarms", d.benign_confirmed_alarms);
  visit("wdog", "watchdog_fires", d.watchdog_fires);
  visit("sretry", "scan_retries", d.scan_retries);
  visit("inj", "faults_injected", r.faults_injected);
}

// "R i=<n> seed=<hex> ... crc=<hex>", newline excluded: the fields of
// visit_trial_fields in its order; the checksum covers everything before
// " crc=".
std::string encode_trial_record(const TrialResult& result);

// Strict decode: returns false (with a one-line reason in *error when
// given) on a bad prefix, missing/misordered field, malformed value or
// checksum mismatch. Never half-fills *out on failure.
bool decode_trial_record(const std::string& line, TrialResult& out,
                         std::string* error = nullptr);

// Runs trial `index` of `spec` to completion in the calling thread,
// against whatever obs sinks are installed. Derivations:
//  * platform seed = seed_for(index), except trial 0 keeps a spec-pinned
//    platform.seed (the run-of-record convention);
//  * with faults_reseed, the injector seed becomes plan.seed ^ seed_for
//    so every trial rolls its own storm, still reproducibly.
// Throws on scenario construction or duel failure; the campaign worker
// turns that into a crash-and-retry, never a half-recorded trial.
TrialResult run_campaign_trial(const CampaignSpec& spec, std::uint64_t index);

}  // namespace satin::campaign
