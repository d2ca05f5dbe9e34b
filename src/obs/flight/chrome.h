// Perfetto view of a flight recording.
//
// write_chrome_trace streams any flight file — a bench run, a
// sim::TrialRunner merge, one campaign trial's trial_<i>.flt — to Chrome
// trace-event JSON (open at ui.perfetto.dev or chrome://tracing). Tracks:
// tid 0 is the engine/global track and each core owns a pair, tid
// `1 + 2*core` (normal world) and `2 + 2*core` (secure world), named like
// `core3/secure`. A bracket from trial_begin to trial_end is its own
// process (pid = trial index + 1); records outside any bracket are pid 0.
// Every record kind maps to named events on its track (DESIGN.md §8);
// spans (secure_world, world_switch_in/out, scan) are B/E pairs, derived
// where one record carries both ends. Dispatch records are not drawn one
// by one: the engine track carries one `dispatches_per_ms` counter, the
// dispatches committed in each simulated millisecond. Output is a pure
// function of the file, byte for byte, and memory stays bounded whatever
// its length.
#pragma once

#include <cstdint>
#include <cstdio>

#include "obs/flight/audit.h"

namespace satin::obs {

// Names a kFault payload. The obs layer does not know the fault kinds
// (fault::to_string does); null draws every injection as "fault".
using FaultKindName = const char* (*)(std::uint64_t kind);

// Reads the rest of `reader` and writes the JSON to `out`. Returns false
// on a read error (reader.error()) or a failed write.
bool write_chrome_trace(FlightReader& reader, std::FILE* out,
                        FaultKindName fault_name = nullptr);

}  // namespace satin::obs
