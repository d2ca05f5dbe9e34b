#include "obs/flight/chrome.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

namespace satin::obs {

namespace {

constexpr std::int64_t kPsPerMs = 1'000'000'000;

// tid 0 is the engine track (actor -1); core c owns tid 1 + 2c for its
// normal world and 2 + 2c for its secure world.
int track(int core, bool secure) {
  return core < 0 ? 0 : 1 + 2 * core + (secure ? 1 : 0);
}

std::string track_name(int tid) {
  if (tid == 0) return "engine";
  return "core" + std::to_string((tid - 1) / 2) +
         ((tid - 1) % 2 != 0 ? "/secure" : "/normal");
}

// The same conversion as sim::Duration::sec().
double seconds(std::uint64_t ps) {
  return static_cast<double>(static_cast<std::int64_t>(ps)) * 1e-12;
}

constexpr const char* kCacheOutcome[] = {
    "digest_cache_served", "digest_cache_hashed", "digest_cache_bypass",
    "digest_cache"};

// By FlightCoreState code; the last entry draws unknown codes.
struct CoreStateEvent {
  const char* cat;
  const char* name;
  bool secure;
  bool irq;
};
constexpr CoreStateEvent kCoreStates[] = {
    {"hw", "core_online", false, false},
    {"hw", "core_offline", false, false},
    {"satin", "core_dropped", true, false},
    {"satin", "core_resorbed", true, false},
    {"satin", "watchdog_rearm", true, false},
    {"hw", "irq_dropped_offline", false, true},
    {"hw", "core_state", false, false}};

class ChromeWriter {
 public:
  ChromeWriter(std::FILE* out, FaultKindName fault_name)
      : out_(out), fault_name_(fault_name) {
    std::fputs("{\"traceEvents\":[\n", out_);
  }

  void finish(const FlightTotals& totals) {
    flush_counter();
    std::fprintf(out_,
                 "\n],\"displayTimeUnit\":\"ms\",\"otherData\":"
                 "{\"dropped_records\":%llu}}\n",
                 static_cast<unsigned long long>(totals.dropped));
  }

  void add(const FlightRecord& rec) {
    const std::int64_t t = rec.t_ps;
    const std::uint64_t p = rec.payload;
    const auto span = static_cast<std::int64_t>(p);
    const int normal = track(rec.actor, false);
    const int secure = track(rec.actor, true);
    switch (static_cast<FlightKind>(rec.kind)) {
      case FlightKind::kDispatch:
        return count_dispatch(t);
      case FlightKind::kTrialBegin:
        flush_counter();
        pid_ = rec.actor + 1;
        return name_track(0);
      case FlightKind::kTrialEnd:
        flush_counter();
        pid_ = 0;
        return;
      case FlightKind::kWorldEnter:  // payload: the switch-in that follows
        event("hw", "secure_timer_irq", 'i', t, secure);
        event("hw", "secure_world", 'B', t, secure);
        event("hw", "world_switch_in", 'B', t, secure);
        return event("hw", "world_switch_in", 'E', t + span, secure);
      case FlightKind::kWorldExit:  // payload: the switch-out that led here
        event("hw", "world_switch_out", 'B', t - span, secure);
        event("hw", "world_switch_out", 'E', t, secure);
        return event("hw", "secure_world", 'E', t, secure);
      case FlightKind::kScanStart:
        return event("secure", "scan", 'B', t, secure);
      case FlightKind::kScanEnd:
        return event("secure", "scan", 'E', t, secure);
      case FlightKind::kDigestCache:
        return event("secure", kCacheOutcome[p & 3], 'i', t, secure,
                     "bytes_hashed", static_cast<double>(p >> 2));
      case FlightKind::kAlarm:
        return event("integrity", (p & 1) != 0 ? "transient_alarm" : "alarm",
                     'i', t, secure, "area", static_cast<double>(p >> 1));
      case FlightKind::kRetry:
        return event("integrity", "retry", 'i', t, secure, "area",
                     static_cast<double>(p));
      case FlightKind::kRound:
        return event("satin", "round", 'i', t, secure, "area",
                     static_cast<double>(p));
      case FlightKind::kProbe:
        return event("attack", "scan_detected", 'i', t, normal, "staleness_s",
                     seconds(p));
      case FlightKind::kEvasion:
        return event("attack", "evasion", 'i', t, normal, "staleness_s",
                     seconds(p));
      case FlightKind::kRearm:
        return event("attack", "rearm", 'i', t, normal);
      case FlightKind::kFault:
        return event("fault",
                     fault_name_ != nullptr ? fault_name_(p) : "fault", 'i', t,
                     normal);
      case FlightKind::kTimerFire:
        return event("hw", "timer_fire", 'i', t,
                     p == kSecureTimerIrq ? secure : normal, "irq",
                     static_cast<double>(p));
      case FlightKind::kTick:
        return event("os", "tick", 'i', t, normal);
      case FlightKind::kRace:
        return event("race",
                     p > 0 ? "write_before_cursor" : "write_after_cursor", 'i',
                     t, normal, "bytes_won", static_cast<double>(p));
      case FlightKind::kCoreState: {
        const CoreStateEvent& e =
            kCoreStates[std::min<std::uint64_t>(p & 0xFF, 6)];
        return event(e.cat, e.name, 'i', t, e.secure ? secure : normal,
                     e.irq ? "irq" : nullptr, static_cast<double>(p >> 8));
      }
      default:  // notes and kinds this build does not know draw nothing
        return;
    }
  }

 private:
  void separate() {
    if (!first_) std::fputs(",\n", out_);
    first_ = false;
  }

  // Names this process and the track the first time either is used.
  void name_track(int tid) {
    if (named_processes_.insert(pid_).second) {
      separate();
      const std::string name =
          pid_ == 0 ? "satin-sim" : "trial " + std::to_string(pid_ - 1);
      std::fprintf(out_,
                   "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                   "\"tid\":0,\"args\":{\"name\":\"%s\"}}",
                   pid_, name.c_str());
    }
    if (!named_tracks_.insert({pid_, tid}).second) return;
    separate();
    std::fprintf(out_,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                 "\"tid\":%d,\"args\":{\"name\":\"%s\"}},\n"
                 "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":%d,"
                 "\"tid\":%d,\"args\":{\"sort_index\":%d}}",
                 pid_, tid, track_name(tid).c_str(), pid_, tid, tid);
  }

  // Timestamps are microseconds with picosecond resolution kept.
  void event(const char* cat, const char* name, char phase, std::int64_t t_ps,
             int tid, const char* arg = nullptr, double value = 0.0) {
    name_track(tid);
    separate();
    std::fprintf(out_,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"ts\":%.6f,"
                 "\"pid\":%d,\"tid\":%d%s",
                 name, cat, phase, static_cast<double>(t_ps) * 1e-6, pid_, tid,
                 phase == 'i' ? ",\"s\":\"t\"" : "");
    if (arg != nullptr) {
      std::fprintf(out_, ",\"args\":{\"%s\":%.9g}", arg, value);
    }
    std::fputc('}', out_);
  }

  void sample(std::int64_t ms, std::uint64_t count) {
    name_track(0);
    separate();
    std::fprintf(out_,
                 "{\"name\":\"dispatches_per_ms\",\"cat\":\"engine\","
                 "\"ph\":\"C\",\"ts\":%.6f,\"pid\":%d,\"tid\":0,"
                 "\"args\":{\"dispatches_per_ms\":%llu}}",
                 static_cast<double>(ms * kPsPerMs) * 1e-6, pid_,
                 static_cast<unsigned long long>(count));
  }

  void count_dispatch(std::int64_t t_ps) {
    const std::int64_t ms = t_ps / kPsPerMs;
    if (dispatches_ > 0 && ms != ms_) flush_counter(ms);
    ms_ = ms;
    ++dispatches_;
  }

  // Closes the current millisecond with its count, then a zero unless
  // the next sample follows straight on, so the counter drops through
  // any gap.
  void flush_counter(std::int64_t next_ms = -1) {
    if (dispatches_ == 0) return;
    sample(ms_, dispatches_);
    if (next_ms != ms_ + 1) sample(ms_ + 1, 0);
    dispatches_ = 0;
  }

  std::FILE* out_;
  FaultKindName fault_name_;
  bool first_ = true;
  int pid_ = 0;
  std::set<int> named_processes_;
  std::set<std::pair<int, int>> named_tracks_;
  std::int64_t ms_ = 0;
  std::uint64_t dispatches_ = 0;
};

}  // namespace

bool write_chrome_trace(FlightReader& reader, std::FILE* out,
                        FaultKindName fault_name) {
  ChromeWriter writer(out, fault_name);
  FlightRecord rec;
  while (reader.next(rec)) writer.add(rec);
  writer.finish(reader.totals());
  return reader.error().empty() && std::ferror(out) == 0;
}

}  // namespace satin::obs
