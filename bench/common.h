// Shared output helpers for the reproduction benches.
//
// Every bench prints the paper's rows next to the simulator's, so the
// shape comparison (who wins, by what factor, where crossovers fall) is
// visible at a glance; EXPERIMENTS.md records the same numbers.
// Every bench also accepts --metrics=<file> / --flight=<file>: declare an
// ObsGuard first thing in main and the flags are consumed from argv, a
// global MetricsRegistry/FlightRecorder is installed for the run, and the
// files are written when the guard goes out of scope (draw a recording
// for Perfetto with `satin_flightool chrome`). Once the bench has
// stripped its own flags too, it exits 2 if obs::reject_unconsumed_args
// finds anything left, such as an output file that cannot be opened.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "obs/session.h"

namespace satin::bench {

using ObsGuard = obs::ObsSession;

inline void heading(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

inline void subheading(const std::string& title) {
  std::printf("\n-- %s --\n", title.c_str());
}

// A labelled row of scientific values with an optional paper reference.
inline void sci_row(const std::string& label, const std::vector<double>& values,
                    const std::string& note = "") {
  std::printf("%-26s", label.c_str());
  for (double v : values) std::printf("  %11.3e", v);
  if (!note.empty()) std::printf("   %s", note.c_str());
  std::printf("\n");
}

inline void text_row(const std::string& label, const std::string& value,
                     const std::string& note = "") {
  std::printf("%-26s  %18s", label.c_str(), value.c_str());
  if (!note.empty()) std::printf("   %s", note.c_str());
  std::printf("\n");
}

inline void columns(const std::string& label,
                    const std::vector<std::string>& cols) {
  std::printf("%-26s", label.c_str());
  for (const auto& c : cols) std::printf("  %11s", c.c_str());
  std::printf("\n");
}

// Machine-readable timing record, for grepping out of a bench's output:
// one `BENCHJSON {...}` line on STDERR. Stderr, never stdout: stdout (and the
// metrics snapshot) must stay bit-identical across --jobs values, and
// host wall-clock never is.
inline void json_row(const std::string& bench, std::size_t trials, int jobs,
                     double wall_s) {
  const double rate = wall_s > 0.0 ? static_cast<double>(trials) / wall_s : 0.0;
  std::fprintf(stderr,
               "BENCHJSON {\"bench\":\"%s\",\"trials\":%zu,\"jobs\":%d,"
               "\"wall_s\":%.6f,\"trials_per_s\":%.3f}\n",
               bench.c_str(), trials, jobs, wall_s, rate);
}

}  // namespace satin::bench
