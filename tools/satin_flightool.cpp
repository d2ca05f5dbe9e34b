// satin_flightool — inspect and diff flight recordings (--flight=).
//
//   satin_flightool dump  FILE [--limit=N]     print records (default all)
//   satin_flightool stats FILE                 per-kind counts, span, chain
//   satin_flightool diff  A B [--context=N]    first-divergence report
//
// Exit codes: 0 = ok / identical, 1 = divergence found, 2 = usage or
// read error (a --limit or --context value that is not a whole number is
// a usage error). CI's divergence-audit job gates directly on these.
//
// Merged recordings bracket each trial's records with a trial_begin
// record (payload = trial seed) and, for sim::TrialRunner merges, a
// trial_end record (seq = the trial's commits, payload = its chain hash).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "obs/flight/audit.h"
#include "obs/session.h"

namespace {

using satin::obs::FlightKind;
using satin::obs::FlightLog;
using satin::obs::FlightStats;

int usage() {
  std::fprintf(stderr,
               "usage: satin_flightool dump FILE [--limit=N]\n"
               "       satin_flightool stats FILE\n"
               "       satin_flightool diff A B [--context=N]\n");
  return 2;
}

// Parses "--<key>=<value>" out of argv; returns fallback when absent, and
// nullopt, naming the argument, when a value is not a whole number.
std::optional<std::size_t> take_size_flag(int& argc, char** argv,
                                          const char* key,
                                          std::size_t fallback) {
  const std::string prefix = std::string("--") + key + "=";
  std::optional<std::size_t> value = fallback;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      value = satin::obs::parse_whole_number(argv[i] + prefix.size(), 0,
                                             SIZE_MAX);
      if (!value) {
        std::fprintf(stderr, "satin_flightool: %s: want a whole number\n",
                     argv[i]);
        return std::nullopt;
      }
      continue;
    }
    argv[out++] = argv[i];
  }
  argv[out] = nullptr;
  argc = out;
  return value;
}

bool load(const char* path, FlightLog& log) {
  std::string error;
  if (!satin::obs::read_flight_log(path, log, &error)) {
    std::fprintf(stderr, "satin_flightool: %s\n", error.c_str());
    return false;
  }
  return true;
}

int cmd_dump(const char* path, std::size_t limit) {
  FlightLog log;
  if (!load(path, log)) return 2;
  std::size_t n = 0;
  for (const auto& rec : log.records) {
    if (n++ >= limit) {
      std::printf("... (%zu more)\n", log.records.size() - limit);
      break;
    }
    std::printf("[%zu] %s\n", n - 1,
                satin::obs::format_flight_record(rec).c_str());
  }
  if (!log.has_footer) std::printf("(no footer: truncated recording)\n");
  return 0;
}

int cmd_stats(const char* path) {
  FlightLog log;
  if (!load(path, log)) return 2;
  const FlightStats stats = satin::obs::compute_flight_stats(log);
  std::printf("records      %llu\n",
              static_cast<unsigned long long>(stats.total));
  for (std::size_t k = 0; k < stats.by_kind.size(); ++k) {
    if (stats.by_kind[k] == 0) continue;
    std::printf("  %-11s %llu\n",
                satin::obs::to_string(static_cast<FlightKind>(k)),
                static_cast<unsigned long long>(stats.by_kind[k]));
  }
  if (stats.other_kinds > 0) {
    std::printf("  %-11s %llu\n", "unknown",
                static_cast<unsigned long long>(stats.other_kinds));
  }
  std::printf("span_ps      %lld..%lld\n",
              static_cast<long long>(stats.first_t_ps),
              static_cast<long long>(stats.last_t_ps));
  std::printf("mode         %s\n", log.ring ? "ring" : "spill");
  if (log.has_footer) {
    std::printf("commits      %llu\n",
                static_cast<unsigned long long>(log.commits));
    std::printf("dropped      %llu\n",
                static_cast<unsigned long long>(log.dropped));
    std::printf("chain        0x%llx\n",
                static_cast<unsigned long long>(log.chain_hash));
  } else {
    std::printf("footer       missing (truncated recording)\n");
  }
  return 0;
}

int cmd_diff(const char* path_a, const char* path_b, std::size_t context) {
  FlightLog a, b;
  if (!load(path_a, a) || !load(path_b, b)) return 2;
  const auto result = satin::obs::diff_flight_logs(a, b, context);
  std::printf("%s\n", result.report.c_str());
  return result.diverged ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "dump") {
    const auto limit = take_size_flag(argc, argv, "limit", SIZE_MAX);
    if (!limit) return 2;
    if (argc != 3) return usage();
    return cmd_dump(argv[2], *limit);
  }
  if (cmd == "stats") {
    if (argc != 3) return usage();
    return cmd_stats(argv[2]);
  }
  if (cmd == "diff") {
    const auto context = take_size_flag(argc, argv, "context", 5);
    if (!context) return 2;
    if (argc != 4) return usage();
    return cmd_diff(argv[2], argv[3], *context);
  }
  return usage();
}
