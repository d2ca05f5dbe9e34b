#include "obs/flight/recorder.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace satin::obs {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline std::uint64_t fnv_step(std::uint64_t h, std::uint64_t x) {
  return (h ^ x) * kFnvPrime;
}

void put_u32(unsigned char* out, std::uint32_t v) {
  out[0] = static_cast<unsigned char>(v);
  out[1] = static_cast<unsigned char>(v >> 8);
  out[2] = static_cast<unsigned char>(v >> 16);
  out[3] = static_cast<unsigned char>(v >> 24);
}

void put_u64(unsigned char* out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(const unsigned char* in) {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

std::uint64_t get_u64(const unsigned char* in) {
  return static_cast<std::uint64_t>(get_u32(in)) |
         (static_cast<std::uint64_t>(get_u32(in + 4)) << 32);
}

}  // namespace

const char* to_string(FlightKind kind) {
  static constexpr const char* kNames[kFlightKindCount] = {
      "note",       "trial_begin", "dispatch",     "world_enter",
      "world_exit", "scan_start",  "scan_end",     "alarm",
      "retry",      "probe",       "fault",        "trial_end",
      "timer_fire", "tick",        "race",         "round",
      "evasion",    "rearm",       "digest_cache", "core_state"};
  const auto k = static_cast<std::size_t>(kind);
  if (k < kFlightKindCount) return kNames[k];
  return kind == FlightKind::kEof ? "eof" : "?";
}

void encode_flight_record(const FlightRecord& record, unsigned char* out) {
  put_u64(out, static_cast<std::uint64_t>(record.t_ps));
  put_u64(out + 8, record.seq);
  put_u64(out + 16, record.payload);
  out[24] = static_cast<unsigned char>(record.kind);
  out[25] = static_cast<unsigned char>(record.kind >> 8);
  const auto actor = static_cast<std::uint16_t>(record.actor);
  out[26] = static_cast<unsigned char>(actor);
  out[27] = static_cast<unsigned char>(actor >> 8);
}

FlightRecord decode_flight_record(const unsigned char* in) {
  FlightRecord record;
  record.t_ps = static_cast<std::int64_t>(get_u64(in));
  record.seq = get_u64(in + 8);
  record.payload = get_u64(in + 16);
  record.kind = static_cast<std::uint16_t>(in[24] |
                                           (static_cast<unsigned>(in[25]) << 8));
  record.actor = static_cast<std::int16_t>(
      static_cast<std::uint16_t>(in[26] | (static_cast<unsigned>(in[27]) << 8)));
  return record;
}

FlightRecorder::FlightRecorder(Options options)
    : options_(std::move(options)) {
  if (options_.ring > 0) {
    retained_.reserve(options_.ring);
  } else if (!options_.path.empty()) {
    retained_.reserve(kFlightSpillChunk);
  }
  if (!options_.path.empty()) {
    io_buf_.resize(kFlightSpillChunk * kFlightRecordBytes);
    file_ = std::fopen(options_.path.c_str(), "wb");
    if (file_ == nullptr) {
      failed_ = true;
      return;
    }
    unsigned char header[kFlightHeaderBytes] = {};
    std::memcpy(header, kFlightMagic, sizeof(kFlightMagic));
    put_u32(header + 8, kFlightVersion);
    put_u32(header + 12, static_cast<std::uint32_t>(kFlightRecordBytes));
    put_u64(header + 16, ring_mode() ? 1u : 0u);  // flags: bit0 = ring
    // bytes 24..31 reserved (zero)
    if (!write_all(header, sizeof(header))) failed_ = true;
  }
}

FlightRecorder::~FlightRecorder() { close(); }

void FlightRecorder::record(FlightKind kind, sim::Time t, std::uint64_t seq,
                            int actor, std::uint64_t payload) {
  FlightRecord rec;
  rec.t_ps = t.ps();
  rec.seq = seq;
  rec.payload = payload;
  rec.kind = static_cast<std::uint16_t>(kind);
  rec.actor = static_cast<std::int16_t>(actor);

  ++commits_;
  chain_ = fnv_step(chain_, static_cast<std::uint64_t>(rec.t_ps));
  chain_ = fnv_step(chain_, rec.seq);
  chain_ = fnv_step(chain_, rec.payload);
  chain_ = fnv_step(chain_, (static_cast<std::uint64_t>(rec.kind) << 16) |
                                static_cast<std::uint16_t>(rec.actor));

  if (options_.ring > 0) {
    if (retained_.size() < options_.ring) {
      retained_.push_back(rec);
    } else {
      retained_[head_] = rec;
      head_ = (head_ + 1) % options_.ring;
      ++dropped_;
    }
    return;
  }
  retained_.push_back(rec);
  if (spilling() && retained_.size() >= kFlightSpillChunk) spill_buffer();
}

void FlightRecorder::append_trial(
    std::size_t index, std::uint64_t seed, const FlightTotals& trial,
    const std::function<bool(FlightRecord&)>& next) {
  // The parent, not the trial, emits the brackets: in ring mode a marker
  // recorded inside the trial would be its oldest record and the first
  // one overwritten, losing the trial boundary exactly when the auditor
  // needs it.
  const int actor = static_cast<int>(index);
  record(FlightKind::kTrialBegin, sim::Time::zero(), index, actor, seed);
  sim::Time last = sim::Time::zero();
  FlightRecord rec;
  while (next(rec)) {
    record(rec);
    last = sim::Time::from_ps(rec.t_ps);
  }
  record(FlightKind::kTrialEnd, last, trial.commits, actor, trial.chain_hash);
  dropped_ += trial.dropped;
}

std::vector<FlightRecord> FlightRecorder::snapshot() const {
  std::vector<FlightRecord> out;
  out.reserve(retained_.size());
  for (std::size_t i = 0; i < retained_.size(); ++i) {
    out.push_back(retained_[(head_ + i) % retained_.size()]);
  }
  return out;
}

bool FlightRecorder::write_all(const unsigned char* data, std::size_t size) {
  return std::fwrite(data, 1, size, file_) == size;
}

void FlightRecorder::spill_buffer() {
  std::size_t n = 0;
  for (const FlightRecord& rec : retained_) {
    encode_flight_record(rec, io_buf_.data() + n * kFlightRecordBytes);
    ++n;
  }
  if (n > 0 && !write_all(io_buf_.data(), n * kFlightRecordBytes)) {
    failed_ = true;
  }
  retained_.clear();
}

bool FlightRecorder::close() {
  if (closed_) return !failed_;
  closed_ = true;
  if (file_ == nullptr) return !failed_;
  if (ring_mode()) {
    // Dump the ring oldest-first, reusing the spill buffer in chunks.
    const std::vector<FlightRecord> records = snapshot();
    std::size_t i = 0;
    while (i < records.size()) {
      const std::size_t n =
          std::min(kFlightSpillChunk, records.size() - i);
      for (std::size_t k = 0; k < n; ++k) {
        encode_flight_record(records[i + k],
                             io_buf_.data() + k * kFlightRecordBytes);
      }
      if (!write_all(io_buf_.data(), n * kFlightRecordBytes)) failed_ = true;
      i += n;
    }
  } else {
    spill_buffer();
  }
  // Footer: commits / dropped / chain hash, so readers can verify
  // completeness and compare recordings O(1).
  FlightRecord footer;
  footer.kind = static_cast<std::uint16_t>(FlightKind::kEof);
  footer.t_ps = static_cast<std::int64_t>(commits_);
  footer.seq = dropped_;
  footer.payload = chain_;
  footer.actor = 0;
  unsigned char buf[kFlightRecordBytes];
  encode_flight_record(footer, buf);
  if (!write_all(buf, sizeof(buf))) failed_ = true;
  if (std::fclose(file_) != 0) failed_ = true;
  file_ = nullptr;
  return !failed_;
}

}  // namespace satin::obs
