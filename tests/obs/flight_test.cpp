#include "obs/flight/recorder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "obs/flight/audit.h"
#include "sim/time.h"

namespace satin::obs {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

void record_n(FlightRecorder& rec, std::uint64_t n, std::uint64_t seq0 = 0) {
  for (std::uint64_t i = 0; i < n; ++i) {
    rec.record(FlightKind::kDispatch,
               sim::Time::from_ps(static_cast<std::int64_t>(1000 * (i + 1))),
               seq0 + i, /*actor=*/static_cast<int>(i % 4),
               /*payload=*/0xABC0 + i);
  }
}

// A whole recording, read back through the streaming reader.
struct ReadBack {
  bool ok = false;
  std::string error;
  std::vector<FlightRecord> records;
  FlightTotals totals;
  bool ring = false;
  bool has_footer = false;
};

ReadBack read_back(const std::string& path) {
  ReadBack out;
  FlightReader reader;
  out.ok = reader.open(path);
  FlightRecord rec;
  while (reader.next(rec)) out.records.push_back(rec);
  out.ok = out.ok && reader.error().empty();
  out.error = reader.error();
  out.totals = reader.totals();
  out.ring = reader.ring();
  out.has_footer = reader.has_footer();
  return out;
}

// Records `fill` into a file named `name` (a ring of `ring` records, or a
// spill) and returns its path.
std::string recorded(const char* name,
                     const std::function<void(FlightRecorder&)>& fill,
                     std::size_t ring = 0) {
  const std::string path = temp_path(name);
  FlightRecorder::Options opts;
  opts.path = path;
  opts.ring = ring;
  FlightRecorder rec(opts);
  fill(rec);
  EXPECT_TRUE(rec.close());
  return path;
}

FlightDivergence diff_files(const std::string& a, const std::string& b,
                            std::size_t context = 5) {
  FlightReader ra, rb;
  EXPECT_TRUE(ra.open(a)) << ra.error();
  EXPECT_TRUE(rb.open(b)) << rb.error();
  return diff_flight_streams(ra, rb, context);
}

TEST(FlightRecordTest, EncodeDecodeRoundTrip) {
  FlightRecord in;
  in.t_ps = -1234567890123;
  in.seq = 0xFEDCBA9876543210ull;
  in.payload = 0x0123456789ABCDEFull;
  in.kind = static_cast<std::uint16_t>(FlightKind::kScanEnd);
  in.actor = -1;
  unsigned char buf[kFlightRecordBytes];
  encode_flight_record(in, buf);
  const FlightRecord out = decode_flight_record(buf);
  EXPECT_EQ(in, out);
}

TEST(FlightRecorderTest, InMemoryRetainsCommitOrder) {
  FlightRecorder rec;
  record_n(rec, 5);
  EXPECT_EQ(rec.commits(), 5u);
  EXPECT_EQ(rec.dropped(), 0u);
  const auto records = rec.snapshot();
  ASSERT_EQ(records.size(), 5u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i);
    EXPECT_EQ(records[i].t_ps, static_cast<std::int64_t>(1000 * (i + 1)));
  }
}

TEST(FlightRecorderTest, RingKeepsNewestAndCountsDrops) {
  FlightRecorder::Options opts;
  opts.ring = 4;
  FlightRecorder rec(opts);
  record_n(rec, 10);
  EXPECT_TRUE(rec.ring_mode());
  EXPECT_EQ(rec.commits(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
  const auto records = rec.snapshot();
  ASSERT_EQ(records.size(), 4u);
  // Oldest-first unwinding of the newest window: seq 6, 7, 8, 9.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(records[i].seq, 6 + i);
}

TEST(FlightRecorderTest, ChainHashCoversDroppedRecords) {
  // Two recorders see the same stream; only one retains all of it. The
  // chains must match anyway — the fold happens at commit, before drops.
  FlightRecorder full;
  FlightRecorder::Options opts;
  opts.ring = 2;
  FlightRecorder ring(opts);
  record_n(full, 8);
  record_n(ring, 8);
  EXPECT_EQ(full.chain_hash(), ring.chain_hash());
  // And the chain is order-sensitive: a reordered stream must not match.
  FlightRecorder swapped;
  swapped.record(FlightKind::kDispatch, sim::Time::from_ps(2000), 1, 1,
                 0xABC1);
  swapped.record(FlightKind::kDispatch, sim::Time::from_ps(1000), 0, 0,
                 0xABC0);
  record_n(swapped, 6, 2);
  EXPECT_NE(full.chain_hash(), swapped.chain_hash());
}

TEST(FlightRecorderTest, AppendFromPreservesOrderAndDrops) {
  FlightRecorder a, b, merged;
  record_n(a, 3, 0);
  record_n(b, 3, 100);
  const auto append = [&merged](std::size_t index,
                                const FlightRecorder& trial) {
    const std::vector<FlightRecord> kept = trial.snapshot();
    std::size_t k = 0;
    merged.append_trial(index, /*seed=*/40 + index, trial.totals(),
                        [&](FlightRecord& rec) {
                          if (k == kept.size()) return false;
                          rec = kept[k++];
                          return true;
                        });
  };
  append(0, a);
  append(1, b);
  // Each trial is bracketed: begin, its three records, end.
  EXPECT_EQ(merged.commits(), 10u);
  const auto records = merged.snapshot();
  ASSERT_EQ(records.size(), 10u);
  EXPECT_EQ(records[0].kind,
            static_cast<std::uint16_t>(FlightKind::kTrialBegin));
  EXPECT_EQ(records[0].payload, 40u);
  EXPECT_EQ(records[3].seq, 2u);
  const FlightRecord& end = records[4];
  EXPECT_EQ(end.kind, static_cast<std::uint16_t>(FlightKind::kTrialEnd));
  EXPECT_EQ(end.t_ps, 3000);
  EXPECT_EQ(end.seq, 3u);
  EXPECT_EQ(end.payload, a.chain_hash());
  EXPECT_EQ(records[5].actor, 1);
  EXPECT_EQ(records[6].seq, 100u);

  // Drop counts fold through the merge.
  FlightRecorder::Options opts;
  opts.ring = 2;
  FlightRecorder ringed(opts);
  record_n(ringed, 5);
  FlightRecorder sink;
  const std::vector<FlightRecord> kept = ringed.snapshot();
  std::size_t k = 0;
  sink.append_trial(0, 0, ringed.totals(), [&](FlightRecord& rec) {
    if (k == kept.size()) return false;
    rec = kept[k++];
    return true;
  });
  EXPECT_EQ(sink.dropped(), 3u);
  EXPECT_EQ(sink.snapshot().size(), 4u);
}

TEST(FlightRecorderTest, SpillFileRoundTripsThroughReader) {
  const std::string path = temp_path("flight_spill.bin");
  constexpr std::size_t kRecords = 2 * kFlightSpillChunk + 100;  // 3 spills
  {
    FlightRecorder::Options opts;
    opts.path = path;
    FlightRecorder rec(opts);
    ASSERT_FALSE(rec.failed());
    record_n(rec, kRecords);
    EXPECT_TRUE(rec.close());
  }
  const ReadBack log = read_back(path);
  ASSERT_TRUE(log.ok) << log.error;
  EXPECT_TRUE(log.has_footer);
  EXPECT_FALSE(log.ring);
  EXPECT_EQ(log.totals.commits, kRecords);
  EXPECT_EQ(log.totals.dropped, 0u);
  ASSERT_EQ(log.records.size(), kRecords);
  for (std::size_t i = 0; i < kRecords; ++i) {
    ASSERT_EQ(log.records[i].seq, i);
  }
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, RingFileKeepsTailWindow) {
  const std::string path = temp_path("flight_ring.bin");
  {
    FlightRecorder::Options opts;
    opts.path = path;
    opts.ring = 16;
    FlightRecorder rec(opts);
    record_n(rec, 64);
    EXPECT_TRUE(rec.close());
  }
  const ReadBack log = read_back(path);
  ASSERT_TRUE(log.ok) << log.error;
  EXPECT_TRUE(log.ring);
  EXPECT_EQ(log.totals.commits, 64u);
  EXPECT_EQ(log.totals.dropped, 48u);
  ASSERT_EQ(log.records.size(), 16u);
  EXPECT_EQ(log.records.front().seq, 48u);
  EXPECT_EQ(log.records.back().seq, 63u);
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, CloseIsIdempotent) {
  const std::string path = temp_path("flight_idem.bin");
  FlightRecorder::Options opts;
  opts.path = path;
  FlightRecorder rec(opts);
  record_n(rec, 3);
  EXPECT_TRUE(rec.close());
  EXPECT_TRUE(rec.close());
  const ReadBack log = read_back(path);
  ASSERT_TRUE(log.ok) << log.error;
  EXPECT_EQ(log.records.size(), 3u);
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, OpenFailureIsReportedNotFatal) {
  FlightRecorder::Options opts;
  opts.path = "/nonexistent-dir-zzz/flight.bin";
  FlightRecorder rec(opts);
  EXPECT_TRUE(rec.failed());
  record_n(rec, 2);  // still records in memory, must not crash
  EXPECT_EQ(rec.commits(), 2u);
}

TEST(FlightAuditTest, ReaderRejectsGarbageAndTornFiles) {
  const std::string path = temp_path("flight_bad.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a flight recording at all", f);
    std::fclose(f);
  }
  FlightReader reader;
  EXPECT_FALSE(reader.open(path));
  EXPECT_FALSE(reader.error().empty());
  EXPECT_FALSE(reader.open(temp_path("flight_missing_zzz.bin")));
  // A torn record is caught at open, before any record is handed out, so
  // a merge never applies half a file.
  const std::string full = recorded("flight_whole.bin",
                                    [](FlightRecorder& r) { record_n(r, 3); });
  {
    std::FILE* in = std::fopen(full.c_str(), "rb");
    std::FILE* out = std::fopen(path.c_str(), "wb");
    ASSERT_NE(in, nullptr);
    ASSERT_NE(out, nullptr);
    std::vector<unsigned char> buf(kFlightHeaderBytes +
                                   2 * kFlightRecordBytes + 5);
    ASSERT_EQ(std::fread(buf.data(), 1, buf.size(), in), buf.size());
    ASSERT_EQ(std::fwrite(buf.data(), 1, buf.size(), out), buf.size());
    std::fclose(in);
    std::fclose(out);
  }
  EXPECT_FALSE(reader.open(path));
  EXPECT_NE(reader.error().find("torn record"), std::string::npos)
      << reader.error();
  FlightRecord rec;
  EXPECT_FALSE(reader.next(rec));
  std::remove(path.c_str());
  std::remove(full.c_str());
}

TEST(FlightAuditTest, ZeroLengthFileGetsADistinctDiagnostic) {
  const std::string path = temp_path("flight_empty.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
  }
  FlightReader reader;
  EXPECT_FALSE(reader.open(path));
  // "empty file", not a generic magic complaint: the operator should see
  // at a glance that the recording never got written, vs got damaged.
  EXPECT_NE(reader.error().find("empty file"), std::string::npos)
      << reader.error();
  std::remove(path.c_str());
}

TEST(FlightAuditTest, TruncatedHeaderReportsByteCount) {
  const std::string path = temp_path("flight_shorthdr.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("SATNFLT", f);  // 7 bytes of a 32-byte header
    std::fclose(f);
  }
  FlightReader reader;
  EXPECT_FALSE(reader.open(path));
  EXPECT_NE(reader.error().find("truncated header"), std::string::npos)
      << reader.error();
  EXPECT_NE(reader.error().find("7"), std::string::npos) << reader.error();
  std::remove(path.c_str());
}

TEST(FlightAuditTest, ReplayFoldsRecordsAndDrops) {
  // A ring file streamed into a merged stream as one trial: its kept
  // records in order, its drops folded, and its full-stream chain in the
  // closing record.
  FlightRecorder alone;
  record_n(alone, 10);
  const std::string path = recorded(
      "flight_replay.bin", [](FlightRecorder& r) { record_n(r, 10); },
      /*ring=*/4);
  FlightReader reader;
  ASSERT_TRUE(reader.open(path)) << reader.error();
  FlightRecorder out;
  out.append_trial(7, 99, reader.totals(),
                   [&reader](FlightRecord& rec) { return reader.next(rec); });
  EXPECT_TRUE(reader.error().empty()) << reader.error();
  EXPECT_EQ(out.commits(), 4u + 2u);
  EXPECT_EQ(out.dropped(), 6u);
  const auto replayed = out.snapshot();
  ASSERT_EQ(replayed.size(), 6u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(replayed[1 + i].seq, 6 + i) << i;
    EXPECT_EQ(replayed[1 + i].payload, 0xABC0 + 6 + i) << i;
  }
  EXPECT_EQ(replayed.back().kind,
            static_cast<std::uint16_t>(FlightKind::kTrialEnd));
  EXPECT_EQ(replayed.back().actor, 7);
  EXPECT_EQ(replayed.back().seq, 10u);
  EXPECT_EQ(replayed.back().payload, alone.chain_hash());
  std::remove(path.c_str());
}

TEST(FlightAuditTest, MissingFooterIsToleratedAsTruncated) {
  const std::string full_path = recorded(
      "flight_full.bin", [](FlightRecorder& r) { record_n(r, 10); });
  const std::string cut_path = temp_path("flight_cut.bin");
  // Chop the footer record off, as a crashed run would.
  {
    std::FILE* in = std::fopen(full_path.c_str(), "rb");
    std::FILE* out = std::fopen(cut_path.c_str(), "wb");
    ASSERT_NE(in, nullptr);
    ASSERT_NE(out, nullptr);
    std::vector<unsigned char> buf(kFlightHeaderBytes +
                                   10 * kFlightRecordBytes);
    ASSERT_EQ(std::fread(buf.data(), 1, buf.size(), in), buf.size());
    ASSERT_EQ(std::fwrite(buf.data(), 1, buf.size(), out), buf.size());
    std::fclose(in);
    std::fclose(out);
  }
  const ReadBack log = read_back(cut_path);
  ASSERT_TRUE(log.ok) << log.error;
  EXPECT_FALSE(log.has_footer);
  EXPECT_EQ(log.records.size(), 10u);
  std::remove(full_path.c_str());
  std::remove(cut_path.c_str());
}

TEST(FlightAuditTest, StatsCountPerKindAndSpan) {
  const std::string path =
      recorded("flight_stats.bin", [](FlightRecorder& rec) {
        rec.record(FlightKind::kWorldEnter, sim::Time::from_ps(100), 0, 2, 0);
        rec.record(FlightKind::kDispatch, sim::Time::from_ps(200), 1, -1, 0);
        rec.record(FlightKind::kDispatch, sim::Time::from_ps(300), 2, -1, 0);
        rec.record(FlightKind::kAlarm, sim::Time::from_ps(400), 0, 2, 5);
        rec.record(FlightKind::kCoreState, sim::Time::from_ps(500), 0, 1, 0);
      });
  FlightReader reader;
  ASSERT_TRUE(reader.open(path)) << reader.error();
  const FlightStats stats = compute_flight_stats(reader);
  EXPECT_EQ(stats.total, 5u);
  EXPECT_EQ(stats.by_kind[static_cast<std::size_t>(FlightKind::kDispatch)],
            2u);
  EXPECT_EQ(stats.by_kind[static_cast<std::size_t>(FlightKind::kAlarm)], 1u);
  EXPECT_EQ(stats.by_kind[static_cast<std::size_t>(FlightKind::kCoreState)],
            1u);
  EXPECT_EQ(stats.other_kinds, 0u);
  EXPECT_EQ(stats.first_t_ps, 100);
  EXPECT_EQ(stats.last_t_ps, 500);
  std::remove(path.c_str());
}

TEST(FlightAuditTest, DiffReportsIdenticalStreams) {
  const auto fill = [](FlightRecorder& r) { record_n(r, 20); };
  const std::string a = recorded("flight_same_a.bin", fill);
  const std::string b = recorded("flight_same_b.bin", fill);
  const auto result = diff_files(a, b);
  EXPECT_FALSE(result.diverged);
  EXPECT_NE(result.report.find("identical: 20 records"), std::string::npos)
      << result.report;
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(FlightAuditTest, DiffLocatesFirstDivergingRecord) {
  const std::string a = recorded("flight_div_a.bin",
                                 [](FlightRecorder& r) { record_n(r, 20); });
  const std::string b = recorded("flight_div_b.bin", [](FlightRecorder& r) {
    record_n(r, 7);
    r.record(FlightKind::kDispatch, sim::Time::from_ps(999999), 7, 0,
             0xDEAD);  // diverges at index 7
    record_n(r, 12, 8);
  });
  const auto result = diff_files(a, b, /*context=*/2);
  EXPECT_TRUE(result.diverged);
  EXPECT_EQ(result.first_index, 7u);
  EXPECT_NE(result.report.find("first divergence at record 7 (A: 20 records, "
                               "B: 20 records)"),
            std::string::npos)
      << result.report;
  // Context from both streams around the divergent record: two equal
  // records before it, the record itself and two after, on each side.
  EXPECT_NE(result.report.find("0xdead"), std::string::npos);
  EXPECT_NE(result.report.find("   [5] "), std::string::npos);
  EXPECT_NE(result.report.find("  >[7] "), std::string::npos);
  EXPECT_NE(result.report.find("   [9] "), std::string::npos);
  EXPECT_EQ(result.report.find("   [4] "), std::string::npos);
  EXPECT_EQ(result.report.find("   [10] "), std::string::npos);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(FlightAuditTest, DiffFlagsPrefixTruncation) {
  const std::string a = recorded("flight_pre_a.bin",
                                 [](FlightRecorder& r) { record_n(r, 10); });
  const std::string b = recorded("flight_pre_b.bin",
                                 [](FlightRecorder& r) { record_n(r, 6); });
  const auto result = diff_files(a, b);
  EXPECT_TRUE(result.diverged);
  EXPECT_EQ(result.first_index, 6u);
  EXPECT_NE(result.report.find("  >[6] <end of stream>"), std::string::npos)
      << result.report;
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(FlightAuditTest, DiffCatchesChainMismatchBehindEqualRingWindows) {
  // Ring recordings can retain identical tail windows while the dropped
  // prefixes differed; the chain hash (folded over every commit) is the
  // only witness, and diff must believe it.
  const auto with_first = [](std::uint64_t first) {
    return [first](FlightRecorder& r) {
      r.record(FlightKind::kNote, sim::Time::from_ps(1), 0, 0, first);
      record_n(r, 8, 10);
    };
  };
  const std::string a = recorded("flight_ring_a.bin", with_first(0x1), 4);
  const std::string b = recorded("flight_ring_b.bin", with_first(0x2), 4);
  EXPECT_EQ(read_back(a).records, read_back(b).records);
  const auto result = diff_files(a, b);
  EXPECT_TRUE(result.diverged);
  EXPECT_NE(result.report.find("CHAIN MISMATCH"), std::string::npos);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

}  // namespace
}  // namespace satin::obs
