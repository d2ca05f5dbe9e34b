// satin_flightool — inspect, diff and draw flight recordings (--flight=).
//
//   satin_flightool dump   FILE [--limit=N]    print records (default all)
//   satin_flightool stats  FILE                per-kind counts, span, chain
//   satin_flightool diff   A B [--context=N]   first-divergence report
//   satin_flightool chrome FILE > FILE.json    Chrome trace-event JSON for
//                                              Perfetto / chrome://tracing
//
// Every command streams its input, so memory stays bounded however long
// the recording is.
//
// Exit codes: 0 = ok / identical, 1 = divergence found, 2 = usage or
// read error (a --limit or --context value that is not a whole number,
// and any other argument left over, is a usage error that names it).
// CI's divergence-audit job gates directly on these.
//
// Merged recordings bracket each trial's records with a trial_begin
// record (payload = trial seed) and a trial_end record (seq = the trial's
// commits, payload = its chain hash); `chrome` draws each bracket as its
// own process.
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

#include "fault/plan.h"
#include "obs/flight/audit.h"
#include "obs/flight/chrome.h"
#include "obs/session.h"

namespace {

using satin::obs::FlightKind;
using satin::obs::FlightReader;
using satin::obs::FlightRecord;
using satin::obs::FlightStats;

int usage() {
  std::fprintf(stderr,
               "usage: satin_flightool dump FILE [--limit=N]\n"
               "       satin_flightool stats FILE\n"
               "       satin_flightool diff A B [--context=N]\n"
               "       satin_flightool chrome FILE\n");
  return 2;
}

// True when the command's `n` arguments, from argv[2] on, are all that
// is left in argv. Otherwise names the first leftover flag (a malformed
// --limit or --context value stays in argv), or prints the usage.
bool only_operands(int argc, char** argv, int n) {
  for (int i = 2; i < argc; ++i) {
    if (argv[i][0] == '-') {
      return !satin::obs::reject_unconsumed_args(argc, argv, i);
    }
  }
  if (argc == 2 + n) return true;
  usage();
  return false;
}

bool open(const char* path, FlightReader& reader) {
  if (reader.open(path)) return true;
  std::fprintf(stderr, "satin_flightool: %s\n", reader.error().c_str());
  return false;
}

// Exit status once a command has read what it needs.
int finish(const FlightReader& reader) {
  if (reader.error().empty()) return 0;
  std::fprintf(stderr, "satin_flightool: %s\n", reader.error().c_str());
  return 2;
}

int cmd_dump(const char* path, std::size_t limit) {
  FlightReader reader;
  if (!open(path, reader)) return 2;
  FlightRecord rec;
  for (std::uint64_t n = 0; reader.next(rec); ++n) {
    if (n >= limit) {
      std::printf("... (%llu more)\n",
                  static_cast<unsigned long long>(reader.records() - limit));
      break;
    }
    std::printf("[%llu] %s\n", static_cast<unsigned long long>(n),
                satin::obs::format_flight_record(rec).c_str());
  }
  if (!reader.has_footer()) std::printf("(no footer: truncated recording)\n");
  return finish(reader);
}

int cmd_stats(const char* path) {
  FlightReader reader;
  if (!open(path, reader)) return 2;
  const FlightStats stats = satin::obs::compute_flight_stats(reader);
  if (!reader.error().empty()) return finish(reader);
  std::printf("records      %llu\n",
              static_cast<unsigned long long>(stats.total));
  for (std::size_t k = 0; k < stats.by_kind.size(); ++k) {
    if (stats.by_kind[k] == 0) continue;
    std::printf("  %-12s %llu\n",
                satin::obs::to_string(static_cast<FlightKind>(k)),
                static_cast<unsigned long long>(stats.by_kind[k]));
  }
  if (stats.other_kinds > 0) {
    std::printf("  %-12s %llu\n", "unknown",
                static_cast<unsigned long long>(stats.other_kinds));
  }
  std::printf("span_ps      %lld..%lld\n",
              static_cast<long long>(stats.first_t_ps),
              static_cast<long long>(stats.last_t_ps));
  std::printf("mode         %s\n", reader.ring() ? "ring" : "spill");
  if (reader.has_footer()) {
    const auto& totals = reader.totals();
    std::printf("commits      %llu\n",
                static_cast<unsigned long long>(totals.commits));
    std::printf("dropped      %llu\n",
                static_cast<unsigned long long>(totals.dropped));
    std::printf("chain        0x%llx\n",
                static_cast<unsigned long long>(totals.chain_hash));
  } else {
    std::printf("footer       missing (truncated recording)\n");
  }
  return 0;
}

int cmd_diff(const char* path_a, const char* path_b, std::size_t context) {
  FlightReader a, b;
  if (!open(path_a, a) || !open(path_b, b)) return 2;
  const auto result = satin::obs::diff_flight_streams(a, b, context);
  if (!a.error().empty()) return finish(a);
  if (!b.error().empty()) return finish(b);
  std::printf("%s\n", result.report.c_str());
  return result.diverged ? 1 : 0;
}

const char* fault_kind_name(std::uint64_t kind) {
  using satin::fault::FaultKind;
  return kind < satin::fault::kFaultKindCount
             ? satin::fault::to_string(static_cast<FaultKind>(kind))
             : "fault";
}

int cmd_chrome(const char* path) {
  FlightReader reader;
  if (!open(path, reader)) return 2;
  if (!satin::obs::write_chrome_trace(reader, stdout, fault_kind_name)) {
    if (!reader.error().empty()) return finish(reader);
    std::fprintf(stderr, "satin_flightool: cannot write the trace\n");
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  using satin::obs::take_whole_number;
  if (cmd == "dump") {
    const auto limit = take_whole_number(argc, argv, "limit", 0, SIZE_MAX);
    if (!only_operands(argc, argv, 1)) return 2;
    return cmd_dump(argv[2], limit.value_or(SIZE_MAX));
  }
  if (cmd == "stats") {
    if (!only_operands(argc, argv, 1)) return 2;
    return cmd_stats(argv[2]);
  }
  if (cmd == "diff") {
    const auto context = take_whole_number(argc, argv, "context", 0, SIZE_MAX);
    if (!only_operands(argc, argv, 2)) return 2;
    return cmd_diff(argv[2], argv[3], context.value_or(5));
  }
  if (cmd == "chrome") {
    if (!only_operands(argc, argv, 1)) return 2;
    return cmd_chrome(argv[2]);
  }
  return usage();
}
