// Streaming reader and divergence auditor over flight recordings.
//
// FlightReader streams the binary file written by FlightRecorder one
// record at a time, so reading a recording costs a fixed buffer however
// long it is. On top of it sit the two questions the determinism gates
// ask:
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
// Merges (sim::TrialRunner under a spilling parent, the campaign
// supervisor) stream per-trial files through the same reader into
// FlightRecorder::append_trial, by append_trial_file.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/flight/recorder.h"

namespace satin::obs {

class FlightReader {
 public:
  FlightReader() = default;
  ~FlightReader();
  FlightReader(const FlightReader&) = delete;
  FlightReader& operator=(const FlightReader&) = delete;

  // Opens a recording and checks its framing before the first record is
  // read: a missing file, a zero-length or truncated-header file, bad
  // magic/version and a torn record each fail with a distinct diagnostic
  // naming the cause (error()). So a merge never half-applies a damaged
  // file. A missing footer is tolerated (has_footer() is false) so
  // crashed runs still dump.
  bool open(const std::string& path);

  // The next record in commit order; false after the last one, and on a
  // read error (error() says which).
  bool next(FlightRecord& out);

  const std::string& error() const { return error_; }
  bool ring() const { return ring_; }
  bool has_footer() const { return has_footer_; }
  // The footer triple; zeros when the footer is missing.
  const FlightTotals& totals() const { return totals_; }
  // Records in the file, footer excluded.
  std::uint64_t records() const { return records_; }

 private:
  bool fail(const std::string& why);

  std::string path_;
  std::string error_;
  std::FILE* file_ = nullptr;
  std::vector<unsigned char> buf_;  // encoded records read ahead
  std::size_t buf_pos_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t read_ = 0;
  FlightTotals totals_;
  bool ring_ = false;
  bool has_footer_ = false;
};

struct FlightStats {
  std::uint64_t total = 0;
  std::array<std::uint64_t, kFlightKindCount> by_kind{};  // by FlightKind
  std::uint64_t other_kinds = 0;  // kinds outside the enum range
  std::int64_t first_t_ps = 0;
  std::int64_t last_t_ps = 0;
};

// Reads the rest of `reader`; check reader.error() afterwards.
FlightStats compute_flight_stats(FlightReader& reader);

// Streams the recording at `path` into `sink` as trial `index` with
// `seed` (FlightRecorder::append_trial). A file that cannot be opened or
// lacks its footer appends nothing; it, and a read error mid-stream,
// return false with the cause in `error`.
bool append_trial_file(FlightRecorder& sink, std::size_t index,
                       std::uint64_t seed, const std::string& path,
                       std::string& error);

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

// Walks both readers to the first differing record, holding only the
// context window in memory; check each reader's error() afterwards.
FlightDivergence diff_flight_streams(FlightReader& a, FlightReader& b,
                                     std::size_t context = 5);

}  // namespace satin::obs
