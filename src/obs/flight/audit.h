// Divergence auditor over flight recordings.
//
// Reads the binary stream written by FlightRecorder and answers the two
// questions the determinism gates ask:
//  * stats  — what does this recording contain (per-kind counts, time
//             span, chain hash, drops)?
//  * diff   — are two recordings identical, and if not, where is the
//             FIRST diverging commit, with surrounding context from both
//             streams so the post-mortem starts at the cause, not the
//             10^6th downstream symptom?
//
// The jobs=1-vs-8 and faults-off-vs-baseline identity gates reduce to
// "diff reports zero divergence"; the negative gate (an armed fault plan
// MUST diverge) reduces to "diff locates a first divergence". The oracle
// sweep (tests/integration/oracle_sweep_test.cpp) compares flight chains
// in process and writes both recordings for diff when they disagree.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight/recorder.h"

namespace satin::obs {

struct FlightLog {
  std::vector<FlightRecord> records;  // footer excluded
  // Footer bookkeeping (zero/false when the footer is missing).
  std::uint64_t commits = 0;
  std::uint64_t dropped = 0;
  std::uint64_t chain_hash = 0;
  bool ring = false;
  bool has_footer = false;
};

// Loads a recording; returns false (and sets *error when given) on a
// missing file, zero-length or truncated-header file, bad magic/version
// or a torn record — each with a distinct diagnostic naming the cause. A
// missing footer is tolerated (has_footer = false) so crashed runs still
// dump.
bool read_flight_log(const std::string& path, FlightLog& out,
                     std::string* error = nullptr);

// Re-records a loaded log into `out` in commit order and folds the log's
// drop count; record-for-record this reproduces the chain-hash evolution
// the original commits produced. The campaign supervisor uses this to
// merge per-trial flight files (written by worker processes) into the
// session stream in trial-index order — the cross-process analogue of
// FlightRecorder::append_from.
void replay_flight_log(const FlightLog& log, FlightRecorder& out);

struct FlightStats {
  std::uint64_t total = 0;
  std::array<std::uint64_t, 16> by_kind{};  // indexed by FlightKind value
  std::uint64_t other_kinds = 0;            // kinds outside the enum range
  std::int64_t first_t_ps = 0;
  std::int64_t last_t_ps = 0;
};

FlightStats compute_flight_stats(const FlightLog& log);

// One human-readable line per record: "t=<ps> kind seq=<n> actor=<a>
// payload=<hex>".
std::string format_flight_record(const FlightRecord& record);

struct FlightDivergence {
  bool diverged = false;
  // Index of the first differing record (or the length of the shorter
  // stream when one is a strict prefix of the other).
  std::size_t first_index = 0;
  // Human-readable report: identity summary, or the first divergence with
  // `context` records of surrounding context from both streams.
  std::string report;
};

FlightDivergence diff_flight_logs(const FlightLog& a, const FlightLog& b,
                                  std::size_t context = 5);

}  // namespace satin::obs
