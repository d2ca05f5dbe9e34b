#include "obs/flight/audit.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>

#include <sys/types.h>

namespace satin::obs {

namespace {

// Records decoded per fread().
constexpr std::size_t kReadChunk = 4096;

std::uint32_t get_u32(const unsigned char* in) {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

}  // namespace

FlightReader::~FlightReader() {
  if (file_ != nullptr) std::fclose(file_);
}

bool FlightReader::fail(const std::string& why) {
  error_ = why;
  if (file_ != nullptr) std::fclose(file_);
  file_ = nullptr;
  return false;
}

bool FlightReader::open(const std::string& path) {
  if (file_ != nullptr) std::fclose(file_);
  path_ = path;
  error_.clear();
  buf_.clear();
  buf_pos_ = 0;
  records_ = read_ = 0;
  totals_ = FlightTotals{};
  ring_ = has_footer_ = false;
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) return fail("cannot open " + path);
  // Distinguish the boring corruptions a fleet actually produces — empty
  // file from a crashed open, truncated header from a torn copy, foreign
  // bytes — so the operator reads the cause, not "bad file". Only the
  // bytes actually read are ever inspected.
  unsigned char header[kFlightHeaderBytes];
  const std::size_t header_n = std::fread(header, 1, sizeof(header), file_);
  if (header_n == 0) {
    return fail(path + ": empty file (zero-length recording)");
  }
  if (header_n < sizeof(header)) {
    return fail(path + ": truncated header (" + std::to_string(header_n) +
                " of " + std::to_string(sizeof(header)) + " bytes)");
  }
  if (std::memcmp(header, kFlightMagic, sizeof(kFlightMagic)) != 0) {
    return fail(path + ": not a flight recording");
  }
  if (get_u32(header + 8) != kFlightVersion ||
      get_u32(header + 12) != kFlightRecordBytes) {
    return fail(path + ": unsupported version/record size");
  }
  ring_ = (header[16] & 1) != 0;

  // The body's length frames it: a torn record shows before any record
  // is handed out, and the last record says whether the footer landed.
  if (fseeko(file_, 0, SEEK_END) != 0) return fail(path + ": cannot seek");
  const off_t body = ftello(file_) - static_cast<off_t>(kFlightHeaderBytes);
  if (body % static_cast<off_t>(kFlightRecordBytes) != 0) {
    return fail(path + ": torn record at end of file");
  }
  records_ = static_cast<std::uint64_t>(body) / kFlightRecordBytes;
  if (records_ > 0) {
    unsigned char last[kFlightRecordBytes];
    if (fseeko(file_, -static_cast<off_t>(kFlightRecordBytes), SEEK_END) !=
            0 ||
        std::fread(last, 1, sizeof(last), file_) != sizeof(last)) {
      return fail(path + ": cannot read the footer");
    }
    const FlightRecord footer = decode_flight_record(last);
    if (footer.kind == static_cast<std::uint16_t>(FlightKind::kEof)) {
      has_footer_ = true;
      totals_ = {static_cast<std::uint64_t>(footer.t_ps), footer.seq,
                 footer.payload};
      --records_;
    }
  }
  if (fseeko(file_, static_cast<off_t>(kFlightHeaderBytes), SEEK_SET) != 0) {
    return fail(path + ": cannot seek");
  }
  return true;
}

bool FlightReader::next(FlightRecord& out) {
  if (file_ == nullptr || read_ == records_) return false;
  if (buf_pos_ == buf_.size()) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kReadChunk, records_ - read_));
    buf_.resize(n * kFlightRecordBytes);
    if (std::fread(buf_.data(), 1, buf_.size(), file_) != buf_.size()) {
      return fail(path_ + ": read error at record " + std::to_string(read_));
    }
    buf_pos_ = 0;
  }
  out = decode_flight_record(buf_.data() + buf_pos_);
  buf_pos_ += kFlightRecordBytes;
  ++read_;
  return true;
}

FlightStats compute_flight_stats(FlightReader& reader) {
  FlightStats stats;
  FlightRecord rec;
  while (reader.next(rec)) {
    if (rec.kind < stats.by_kind.size()) {
      ++stats.by_kind[rec.kind];
    } else {
      ++stats.other_kinds;
    }
    if (stats.total++ == 0) stats.first_t_ps = rec.t_ps;
    stats.last_t_ps = rec.t_ps;
  }
  return stats;
}

bool append_trial_file(FlightRecorder& sink, std::size_t index,
                       std::uint64_t seed, const std::string& path,
                       std::string& error) {
  FlightReader reader;
  if (!reader.open(path) || !reader.has_footer()) {
    error = reader.error().empty() ? path + ": no footer" : reader.error();
    return false;
  }
  sink.append_trial(index, seed, reader.totals(),
                    [&reader](FlightRecord& rec) { return reader.next(rec); });
  error = reader.error();
  return error.empty();
}

std::string format_flight_record(const FlightRecord& record) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "t=%lldps %-12s seq=%llu actor=%d payload=0x%llx",
                static_cast<long long>(record.t_ps),
                to_string(static_cast<FlightKind>(record.kind)),
                static_cast<unsigned long long>(record.seq), record.actor,
                static_cast<unsigned long long>(record.payload));
  return buf;
}

namespace {

// The context lines of one stream around a divergence at `at`: `before`
// holds the records just ahead of it (equal on both sides), `from` the
// stream's own records from `at` on.
void append_context(std::string& out, const char* label,
                    const std::deque<FlightRecord>& before,
                    const std::vector<FlightRecord>& from, std::size_t at) {
  out += label;
  out += ":\n";
  const auto line = [&out, at](std::size_t i, const FlightRecord& rec) {
    char head[32];
    std::snprintf(head, sizeof(head), "  %c[%zu] ", i == at ? '>' : ' ', i);
    out += head;
    out += format_flight_record(rec);
    out += '\n';
  };
  std::size_t i = at - before.size();
  for (const FlightRecord& rec : before) line(i++, rec);
  for (const FlightRecord& rec : from) line(i++, rec);
  if (from.empty()) {
    char head[64];
    std::snprintf(head, sizeof(head), "  >[%zu] <end of stream>\n", at);
    out += head;
  }
}

}  // namespace

FlightDivergence diff_flight_streams(FlightReader& a, FlightReader& b,
                                     std::size_t context) {
  FlightDivergence result;
  std::deque<FlightRecord> before;  // the last `context` equal records
  std::size_t i = 0;
  FlightRecord ra, rb;
  bool more_a = a.next(ra);
  bool more_b = b.next(rb);
  while (more_a && more_b && ra == rb) {
    if (context > 0) {
      if (before.size() == context) before.pop_front();
      before.push_back(ra);
    }
    ++i;
    more_a = a.next(ra);
    more_b = b.next(rb);
  }
  const FlightTotals& ta = a.totals();
  const FlightTotals& tb = b.totals();
  if (!more_a && !more_b) {
    // A ring recording can drop the prefix where two runs diverged; the
    // retained windows then compare equal while the full streams did not.
    // The chain hash covers every committed record, so surface that.
    const bool chains_differ = a.has_footer() && b.has_footer() &&
                               ta.chain_hash != tb.chain_hash;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "identical: %zu records, chain 0x%llx vs 0x%llx%s", i,
                  static_cast<unsigned long long>(ta.chain_hash),
                  static_cast<unsigned long long>(tb.chain_hash),
                  chains_differ
                      ? " (CHAIN MISMATCH: records dropped before divergence)"
                      : "");
    result.report = buf;
    result.diverged = chains_differ;
    result.first_index = i;
    return result;
  }
  // Each side's records from the divergence on, `context` past it.
  const auto tail = [context](FlightReader& reader, bool more,
                              const FlightRecord& first) {
    std::vector<FlightRecord> out;
    FlightRecord rec = first;
    while (more && out.size() <= context) {
      out.push_back(rec);
      more = reader.next(rec);
    }
    return out;
  };
  const std::vector<FlightRecord> from_a = tail(a, more_a, ra);
  const std::vector<FlightRecord> from_b = tail(b, more_b, rb);
  result.diverged = true;
  result.first_index = i;
  char head[256];
  std::snprintf(head, sizeof(head),
                "first divergence at record %zu"
                " (A: %llu records, B: %llu records)\n",
                i, static_cast<unsigned long long>(a.records()),
                static_cast<unsigned long long>(b.records()));
  result.report = head;
  append_context(result.report, "--- A", before, from_a, i);
  append_context(result.report, "--- B", before, from_b, i);
  return result;
}

}  // namespace satin::obs
