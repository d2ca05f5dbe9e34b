// Flight recorder: the one event tap.
//
// Every determinism claim this repo makes — any --jobs=J is bit-identical,
// the digest cache is invisible, a fault plan off is a no-op — ultimately
// reduces to "the engine committed the same events in the same order".
// The FlightRecorder taps exactly that: each engine event commit (and the
// semantic commits layered on top: world switches, scans with the digest
// as payload, alarms, probes, fault injections, timer fires, ticks, race
// resolutions, SATIN rounds, evasions, digest-cache outcomes and rare
// core state changes) becomes one fixed-size FlightRecord {when, seq,
// kind, actor, payload}. Two runs are equivalent iff their flight streams
// are identical, which turns ad-hoc stdout diffs into a systematic audit
// (obs/flight/audit.h + tools/satin_flightool), and the same stream draws
// the Perfetto timeline (obs/flight/chrome.h, `satin_flightool chrome`).
//
// Memory model: zero steady-state allocations on the record path.
//  * Spill mode (a path, ring == 0): records accumulate in a buffer
//    preallocated for kFlightSpillChunk records and are fwrite()n to the
//    file in encoded chunks when it fills — bounded memory, full stream.
//  * Ring mode (ring == N): a preallocated N-record ring keeps the newest
//    records (capture-on-alarm: the tail window is the one a post-mortem
//    needs); the file is written on close(). Dropped-record counts are
//    preserved in the footer.
//  * In-memory mode (no path): same ring/unbounded retention, no file —
//    per-trial recorders under a ring parent, and tests.
//
// Threading follows the PR-3 obs discipline: a thread_local slot, one
// pointer test per macro when no recorder is installed, per-trial
// recorders installed by sim::TrialRunner and merged (append_trial) in
// submission order, so the merged stream is identical for any --jobs.
//
// A chain hash (FNV-1a folded over every record in commit order) rides
// along so `satin_flightool stats` can compare two recordings O(1).
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.h"

namespace satin::obs {

enum class FlightKind : std::uint16_t {
  kNote = 0,        // freeform marker (payload = caller-defined)
  kTrialBegin = 1,  // actor = trial index, payload = trial seed
  kDispatch = 2,    // engine commit: seq = engine sequence number
  kWorldEnter = 3,  // secure-world entry, actor = core,
                    // payload = switch-in duration (ps)
  kWorldExit = 4,   // secure-world exit, actor = core,
                    // payload = switch-out duration (ps)
  kScanStart = 5,   // payload = (offset << 32) | length
  kScanEnd = 6,     // payload = observed digest
  kAlarm = 7,       // payload = (area << 1) | transient, actor = core
  kRetry = 8,       // payload = area, actor = core
  kProbe = 9,       // prober detection, actor = core,
                    // payload = staleness (ps)
  kFault = 10,      // payload = fault kind, actor = core
  kTrialEnd = 11,   // actor = trial index, seq = the trial's commits,
                    // payload = the trial's chain hash
  kTimerFire = 12,  // generic-timer expiry, actor = core, payload = irq
  kTick = 13,       // rich-OS scheduler tick, actor = core
  kRace = 14,       // a write overlapping a scan, seq = write ordinal,
                    // payload = bytes written ahead of the scan cursor
  kRound = 15,      // SATIN round, actor = core, seq = round ordinal,
                    // payload = area
  kEvasion = 16,    // TZ-Evader hides, actor = core, seq = evasion
                    // ordinal, payload = staleness (ps)
  kRearm = 17,      // TZ-Evader re-arms, seq = rearm ordinal
  kDigestCache = 18,  // a scan's digest-cache outcome, actor = core,
                      // seq = scan ordinal,
                      // payload = (bytes hashed << 2) | FlightCacheOutcome
  kCoreState = 19,  // rare core/IRQ state change, actor = core,
                    // payload = (irq << 8) | FlightCoreState
  kEof = 0xFFFF,    // footer sentinel (never recorded by components)
};

// Kinds below this value are the ones components record.
inline constexpr std::size_t kFlightKindCount = 20;

// kDigestCache payload, low two bits: how a scan's digest was served.
enum class FlightCacheOutcome : std::uint8_t {
  kServed = 0,  // an untouched area, served from the pristine base
  kHashed = 1,  // a trusted view the base did not serve, hashed
  kBypass = 2,  // a raced or glitched view, hashed
};

// kCoreState payload, low byte.
enum class FlightCoreState : std::uint8_t {
  kOnline = 0,
  kOffline = 1,
  kSatinDropped = 2,       // SATIN took an offline core out of rotation
  kSatinResorbed = 3,      // ... and back in
  kWatchdogRearm = 4,      // SATIN re-armed an overdue core's timer
  kIrqDroppedOffline = 5,  // an IRQ to an offline core; irq in bits 8+
};

inline std::uint64_t core_state_payload(FlightCoreState state,
                                        std::uint64_t irq = 0) {
  return (irq << 8) | static_cast<std::uint64_t>(state);
}

// Actor of records that belong to no core: the engine/global track.
inline constexpr int kGlobalTrack = -1;
// kTimerFire's payload for the per-core secure timer (hw::IrqId::
// kSecurePhysTimer); its fires belong to the secure world.
inline constexpr std::uint64_t kSecureTimerIrq = 29;

const char* to_string(FlightKind kind);

struct FlightRecord {
  std::int64_t t_ps = 0;       // simulated commit time
  std::uint64_t seq = 0;       // engine sequence / per-kind ordinal
  std::uint64_t payload = 0;   // kind-specific hash or value
  std::uint16_t kind = 0;      // FlightKind
  std::int16_t actor = -1;     // core id, trial index, or -1

  friend bool operator==(const FlightRecord& a, const FlightRecord& b) {
    return a.t_ps == b.t_ps && a.seq == b.seq && a.payload == b.payload &&
           a.kind == b.kind && a.actor == b.actor;
  }
};

// On-disk encoding: 28 bytes little-endian per record (see audit.cpp for
// the reader). Exposed for the writer/reader pair and tests.
inline constexpr std::size_t kFlightRecordBytes = 28;
inline constexpr char kFlightMagic[8] = {'S', 'A', 'T', 'N',
                                         'F', 'L', 'T', '1'};
inline constexpr std::uint32_t kFlightVersion = 1;
inline constexpr std::size_t kFlightHeaderBytes = 32;
// Records buffered between fwrite()s in spill mode.
inline constexpr std::size_t kFlightSpillChunk = std::size_t{1} << 16;

// A recording's footer triple: records committed (spilled and
// overwritten ones included), ring overwrites, and the chain hash.
struct FlightTotals {
  std::uint64_t commits = 0;
  std::uint64_t dropped = 0;
  std::uint64_t chain_hash = 0;
};

struct FlightRecorderOptions {
  // Spill target; empty = in-memory only (per-trial recorders, tests).
  std::string path;
  // > 0: bounded ring of this many records, newest kept, file (if any)
  // written at close(). 0 with a path: chunked spill (full stream).
  // 0 without a path: unbounded in-memory retention.
  std::size_t ring = 0;
};

class FlightRecorder {
 public:
  using Options = FlightRecorderOptions;

  explicit FlightRecorder(Options options = Options());
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void record(FlightKind kind, sim::Time t, std::uint64_t seq, int actor,
              std::uint64_t payload);
  void record(const FlightRecord& rec) {
    record(static_cast<FlightKind>(rec.kind), sim::Time::from_ps(rec.t_ps),
           rec.seq, rec.actor, rec.payload);
  }

  // Writes one trial into this merged stream: a kTrialBegin record
  // (actor = index, payload = seed), every record `next` yields, in
  // commit order, then a kTrialEnd record at the last one's time. The
  // trial's commit count and chain hash ride in kTrialEnd; they fold every
  // record the trial committed, so the merged chain covers a ring-bounded
  // trial's whole stream. The trial's drops are folded too.
  // sim::TrialRunner and the campaign merge write every trial through
  // this, from an in-memory recorder or from a FlightReader.
  void append_trial(std::size_t index, std::uint64_t seed,
                    const FlightTotals& trial,
                    const std::function<bool(FlightRecord&)>& next);

  // This recorder's footer triple.
  FlightTotals totals() const { return {commits_, dropped_, chain_}; }

  // Records ever committed to this recorder (including spilled/overwritten).
  std::uint64_t commits() const { return commits_; }
  // Ring overwrites (oldest records lost), plus drops folded by
  // append_trial.
  std::uint64_t dropped() const { return dropped_; }
  // FNV-1a fold over every committed record, in commit order.
  std::uint64_t chain_hash() const { return chain_; }

  // Ring capacity (0 = no ring); the TrialRunner sizes each per-trial
  // recorder from the one installed on the calling thread.
  std::size_t ring_capacity() const { return options_.ring; }
  bool ring_mode() const { return options_.ring > 0; }
  bool spilling() const { return file_ != nullptr && !ring_mode(); }
  const std::string& path() const { return options_.path; }
  // True when a path was configured but the file could not be opened or
  // written.
  bool failed() const { return failed_; }

  // Retained records in commit order (ring unwound, oldest first).
  std::vector<FlightRecord> snapshot() const;

  // Finalizes the file: drains the spill buffer (or dumps the ring) and
  // writes the footer. Idempotent; returns false if any write failed.
  // In-memory recorders return true and do nothing.
  bool close();

 private:
  void spill_buffer();
  bool write_all(const unsigned char* data, std::size_t size);

  Options options_;
  std::vector<FlightRecord> retained_;  // ring or in-memory retention
  std::size_t head_ = 0;                // oldest slot once the ring is full
  std::vector<unsigned char> io_buf_;   // preallocated encode buffer
  std::FILE* file_ = nullptr;
  std::uint64_t commits_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t chain_ = 14695981039346656037ull;  // FNV-1a offset basis
  bool closed_ = false;
  bool failed_ = false;
};

// Encodes one record into exactly kFlightRecordBytes at `out`.
void encode_flight_record(const FlightRecord& record, unsigned char* out);
// Decodes; the buffer must hold kFlightRecordBytes.
FlightRecord decode_flight_record(const unsigned char* in);

// Per-thread recorder the macro emits into; null disables flight
// recording. Thread-local for the same reason as the metrics slot:
// parallel trial workers record into their own instance, merged in
// submission order — no locks on the hot path.
inline FlightRecorder*& flight_slot() {
  thread_local FlightRecorder* recorder = nullptr;
  return recorder;
}
inline FlightRecorder* flight() { return flight_slot(); }
inline void install_flight(FlightRecorder* recorder) {
  flight_slot() = recorder;
}

}  // namespace satin::obs

#define SATIN_FLIGHT_RECORD(kind, t, seq, actor, payload)                  \
  do {                                                                     \
    if (auto* satin_obs_fl_ = ::satin::obs::flight())                      \
      satin_obs_fl_->record((kind), (t), (seq), (actor), (payload));       \
  } while (0)
