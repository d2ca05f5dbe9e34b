#include "hw/memory.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

#include "obs/flight/recorder.h"
#include "obs/metrics.h"

namespace satin::hw {

namespace {
std::size_t page_bytes() {
  static const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

std::size_t round_up_to_page(std::size_t n) {
  const std::size_t page = page_bytes();
  return (n + page - 1) / page * page;
}

// Reserves size bytes rounded up to whole pages plus a PROT_NONE guard
// page. Anonymous private pages read as zero until first written, so an
// untouched gigabyte costs nothing.
std::uint8_t* map_zeroed(std::size_t size, std::size_t map_bytes) {
  void* base = ::mmap(nullptr, map_bytes, PROT_NONE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (base == MAP_FAILED) throw std::bad_alloc();
  const std::size_t usable = round_up_to_page(size);
  if (usable > 0 && ::mprotect(base, usable, PROT_READ | PROT_WRITE) != 0) {
    ::munmap(base, map_bytes);
    throw std::bad_alloc();
  }
  return static_cast<std::uint8_t*>(base);
}
}  // namespace

Memory::Memory(std::size_t size)
    : size_(size),
      map_bytes_(round_up_to_page(size) + page_bytes()),
      data_(map_zeroed(size_, map_bytes_)),
      written_(((size + kChunkBytes - 1) / kChunkBytes + 63) / 64, 0) {}

Memory::~Memory() { ::munmap(data_, map_bytes_); }

std::uint8_t Memory::read(std::size_t offset) const {
  if (offset >= size_) {
    throw std::out_of_range("Memory::read: offset " + std::to_string(offset) +
                            " exceeds size " + std::to_string(size_));
  }
  return data_[offset];
}

void Memory::check_range(const char* what, std::size_t offset,
                         std::size_t length) const {
  if (offset > size_ || length > size_ - offset) {
    throw std::out_of_range(std::string("Memory::") + what + ": offset " +
                            std::to_string(offset) + " + len " +
                            std::to_string(length) + " exceeds size " +
                            std::to_string(size_));
  }
}

namespace {

// Bits lo..hi (inclusive, 0..63) of a word.
constexpr std::uint64_t bit_span(std::size_t lo, std::size_t hi) {
  return (~std::uint64_t{0} >> (63 - hi)) & (~std::uint64_t{0} << lo);
}

}  // namespace

void Memory::mark_written(std::size_t offset, std::size_t length) {
  if (length == 0) return;
  mutated_ = true;
  // A word at a time: an image install marks ~46,500 chunks.
  const std::size_t first = offset / kChunkBytes;
  const std::size_t last = (offset + length - 1) / kChunkBytes;
  const std::size_t w0 = first / 64;
  const std::size_t w1 = last / 64;
  if (w0 == w1) {
    written_[w0] |= bit_span(first % 64, last % 64);
    return;
  }
  written_[w0] |= bit_span(first % 64, 63);
  std::fill(written_.begin() + static_cast<std::ptrdiff_t>(w0 + 1),
            written_.begin() + static_cast<std::ptrdiff_t>(w1),
            ~std::uint64_t{0});
  written_[w1] |= bit_span(0, last % 64);
}

void Memory::stamp_baseline() {
  std::fill(written_.begin(), written_.end(), 0);
  baseline_stamped_ = true;
}

bool Memory::untouched_since_baseline(std::size_t offset,
                                      std::size_t length) const {
  check_range("untouched_since_baseline", offset, length);
  if (!baseline_stamped_) return false;
  if (length == 0) return true;
  // 64 chunk marks per step.
  const std::size_t first = offset / kChunkBytes;
  const std::size_t last = (offset + length - 1) / kChunkBytes;
  const std::size_t w0 = first / 64;
  const std::size_t w1 = last / 64;
  if (w0 == w1) return (written_[w0] & bit_span(first % 64, last % 64)) == 0;
  if ((written_[w0] & bit_span(first % 64, 63)) != 0) return false;
  for (std::size_t w = w0 + 1; w < w1; ++w) {
    if (written_[w] != 0) return false;
  }
  return (written_[w1] & bit_span(0, last % 64)) == 0;
}

void Memory::materialize_overlapping(std::size_t offset, std::size_t length) {
  for (ActiveScan& scan : scans_) {
    if (scan.materialized) continue;
    const std::size_t lo = std::max(offset, scan.offset);
    const std::size_t hi = std::min(offset + length, scan.offset + scan.length);
    if (lo >= hi) continue;
    scan.view.assign(data_ + scan.offset, data_ + scan.offset + scan.length);
    scan.materialized = true;
  }
}

void Memory::poke(std::size_t offset, std::span<const std::uint8_t> data) {
  check_range("poke", offset, data.size());
  // An untimed poke is invisible to in-flight scans (their snapshot is
  // anchored at scan start); give overlapped scans their private view
  // before the backing bytes move under them.
  materialize_overlapping(offset, data.size());
  mark_written(offset, data.size());
  std::copy(data.begin(), data.end(), data_ + offset);
}

bool Memory::install_image(std::span<const std::uint8_t> image, int fd) {
  check_range("install_image", 0, image.size());
  const std::size_t mapped = image.size() / page_bytes() * page_bytes();
  // Mapping replaces pages wholesale, so it is exact only over pages that
  // still read as zero and that no in-flight scan window references.
  if (fd >= 0 && mapped > 0 && !mutated_ && scans_.empty()) {
    if (::mmap(data_, mapped, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_FIXED, fd, 0) != MAP_FAILED) {
      mark_written(0, image.size());
      std::memcpy(data_ + mapped, image.data() + mapped,
                  image.size() - mapped);
      return true;
    }
    // A failed MAP_FIXED may already have dropped the pages it was to
    // replace: put fresh zero pages back, then copy.
    if (::mmap(data_, mapped, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED, -1, 0) == MAP_FAILED) {
      throw std::bad_alloc();
    }
  }
  poke(0, image);
  return false;
}

void Memory::write(sim::Time now, std::size_t offset,
                   std::span<const std::uint8_t> data) {
  check_range("write", offset, data.size());
  ++write_count_;
  materialize_overlapping(offset, data.size());
  mark_written(offset, data.size());
  for (ActiveScan& scan : scans_) {
    const std::size_t scan_end = scan.offset + scan.length;
    const std::size_t lo = std::max(offset, scan.offset);
    const std::size_t hi = std::min(offset + data.size(), scan_end);
    if (lo >= hi) continue;
    std::size_t bytes_won = 0;  // write landed before the scan cursor
    for (std::size_t pos = lo; pos < hi; ++pos) {
      const double touch_ps =
          static_cast<double>(scan.start.ps()) +
          scan.per_byte_ps * static_cast<double>(pos - scan.offset);
      // The scanner reads byte `pos` at touch time; a write at exactly the
      // touch time is taken as visible (the store wins the cache race).
      if (static_cast<double>(now.ps()) <= touch_ps) {
        scan.view[pos - scan.offset] = data[pos - offset];
        ++bytes_won;
      }
    }
    // Per-byte race resolution: bytes the write placed ahead of the cursor
    // are what the scanner will hash; bytes behind it were already read.
    SATIN_FLIGHT_RECORD(obs::FlightKind::kRace, now, write_count_ - 1,
                        obs::kGlobalTrack, bytes_won);
    SATIN_METRIC_ADD("race.bytes_write_won", bytes_won);
    SATIN_METRIC_ADD("race.bytes_write_lost", (hi - lo) - bytes_won);
    SATIN_METRIC_INC("race.writes_during_scan");
    // Race-window width: how many overlapped bytes were still ahead of the
    // scan cursor when the write landed — the per-write TOCTTOU window.
    SATIN_METRIC_DIGEST_OBSERVE("race.window_bytes",
                                static_cast<double>(bytes_won));
  }
  std::copy(data.begin(), data.end(), data_ + offset);
}

Memory::ScanToken Memory::begin_scan(sim::Time start, std::size_t offset,
                                     std::size_t length, double per_byte_ps) {
  check_range("begin_scan", offset, length);
  if (length == 0) throw std::invalid_argument("Memory::begin_scan: empty");
  if (!(per_byte_ps > 0.0)) {
    throw std::invalid_argument("Memory::begin_scan: non-positive speed");
  }
  ActiveScan scan;
  scan.id = next_scan_id_++;
  scan.start = start;
  scan.offset = offset;
  scan.length = length;
  scan.per_byte_ps = per_byte_ps;
  // Copy-on-first-overlap: the private view is deferred until a glitch
  // flips one of its bits or a write or poke touches the window. A
  // transient read glitch corrupts what this scan observes, never the
  // backing bytes, and racing writes still apply on top of the glitched
  // view deterministically.
  if (fault_hooks_ != nullptr) {
    const std::vector<BitFlip> flips = fault_hooks_->scan_flips(start, length);
    if (!flips.empty()) {
      scan.view.assign(data_ + offset, data_ + offset + length);
      scan.materialized = true;
      for (const BitFlip& flip : flips) scan.view.at(flip.pos) ^= flip.mask;
    }
  }
  scans_.push_back(std::move(scan));
  return ScanToken(scans_.back().id);
}

Memory::ScanView Memory::finish_scan(ScanToken token) {
  for (auto it = scans_.begin(); it != scans_.end(); ++it) {
    if (it->id == token.id_) {
      ScanView result =
          it->materialized
              ? ScanView(std::move(it->view))
              : ScanView(bytes().subspan(it->offset, it->length));
      scans_.erase(it);
      return result;
    }
  }
  throw std::logic_error("Memory::finish_scan: unknown token");
}

void Memory::cancel_scan(ScanToken token) {
  for (auto it = scans_.begin(); it != scans_.end(); ++it) {
    if (it->id == token.id_) {
      scans_.erase(it);
      return;
    }
  }
  throw std::logic_error("Memory::cancel_scan: unknown token");
}

}  // namespace satin::hw
