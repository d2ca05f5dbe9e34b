// One-call observability wiring for examples and benches.
//
// ObsSession parses and strips `--metrics=<file>` and `--flight=<file>`
// from argv, installs a global MetricsRegistry / FlightRecorder while
// alive, and writes the requested files when flushed (or destroyed).
//
//   int main(int argc, char** argv) {
//     scenario::Scenario system;            // engine outlives the session
//     obs::ObsSession obs(argc, argv);
//     ...
//     obs.flush(&system.engine());          // optional explicit flush
//   }
//
// `--flight=run.flt` records every traced event (tools/satin_flightool
// reads it; `satin_flightool chrome run.flt > run.json` opens in Perfetto
// or chrome://tracing).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "obs/flight/recorder.h"
#include "obs/metrics.h"

namespace satin::sim {
class Engine;
}

namespace satin::obs {

// Records engine self-metrics (queue events and keyed actions fired, queue
// depth high-water mark, cancelled-event ratio, wall time per simulated
// second) as gauges.
// Pass include_wall=false inside parallel trials: host wall time differs
// run to run, and trial metrics must stay bit-identical across --jobs.
void snapshot_engine_metrics(const sim::Engine& engine,
                             MetricsRegistry& registry,
                             bool include_wall = true);

class ObsSession {
 public:
  // Consumes --metrics= / --metrics-stable / --flight= from argv (argc is
  // rewritten) and nothing else: a program takes its own flags (such as
  // --jobs= or --faults=) with take_flag/take_whole_number, and
  // reject_unconsumed_args names any flag it does not read. When no flag
  // is present the session installs nothing and costs nothing.
  // --flight=path[,ring=N] records the engine's event-commit stream to a
  // binary flight recording (spill mode by default; ring=N keeps only the
  // newest N records). A ring= value that is not a whole number, and a
  // --metrics or --flight file that cannot be opened for writing, is
  // reported, naming the flag, and left in argv, so the caller's
  // reject_unconsumed_args() check fails the run before it simulates
  // anything. --metrics-stable omits volatile gauges (host wall time,
  // allocator high-water marks) from the metrics snapshot, so identity
  // gates can diff it verbatim.
  ObsSession(int& argc, char** argv);
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  bool metrics_enabled() const { return registry_ != nullptr; }
  bool flight_enabled() const { return flight_ != nullptr; }
  bool metrics_stable() const { return metrics_stable_; }
  const std::string& metrics_path() const { return metrics_path_; }
  const std::string& flight_path() const { return flight_path_; }

  MetricsRegistry* registry() { return registry_.get(); }
  FlightRecorder* flight_recorder() { return flight_.get(); }

  // Writes the requested files and uninstalls the global hooks. Pass the
  // engine to include its self-metrics in the snapshot; call before the
  // engine dies (the destructor flushes without engine metrics otherwise).
  // Returns false when any file failed to write.
  bool flush(const sim::Engine* engine = nullptr);

 private:
  std::string metrics_path_;
  std::string flight_path_;
  bool metrics_stable_ = false;
  std::unique_ptr<MetricsRegistry> registry_;
  std::unique_ptr<FlightRecorder> flight_;
  bool flushed_ = false;
};

// Reads `text` as a whole number in [min, max]. Digits only: std::atoi
// would read "4x" as 4 and "two" as 0, and strtoull alone stops quietly
// at a suffix. nullopt for anything else.
std::optional<unsigned long long> parse_whole_number(const std::string& text,
                                                     unsigned long long min,
                                                     unsigned long long max);

// Strips every "--<key>=<value>" from argv (argc is rewritten) and
// returns the last value, "" when the flag is absent. An argument whose
// value `malformed` flags stays in argv instead, where
// reject_unconsumed_args() names it: a bad value fails the run rather
// than falling back to a default.
std::string take_flag(int& argc, char** argv, const char* key,
                      const std::function<bool(const std::string&)>&
                          malformed = nullptr);

// take_flag for a whole number in [min, max]: the last one given, nullopt
// when there is none. Any other value is reported on stderr, naming the
// argument, and stays in argv.
std::optional<unsigned long long> take_whole_number(int& argc, char** argv,
                                                    const char* key,
                                                    unsigned long long min,
                                                    unsigned long long max);

// Call once every flag the program reads has been stripped from argv:
// names the first of argv[first..argc) on stderr and returns true, or
// returns false when there is none. An argument whose value take_flag
// refused is named as refused, any other as unrecognized. The examples
// and benches exit 2 on true, so a misspelled or retired flag, or a bad
// value, fails instead of being silently ignored.
bool reject_unconsumed_args(int argc, char* const* argv, int first = 1);

}  // namespace satin::obs
