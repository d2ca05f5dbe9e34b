// Physical memory with TOCTTOU-exact linear scans.
//
// The race at the heart of the paper is: the secure world walks N bytes at
// Ts_1byte per byte while the normal world rewrites M bytes in parallel
// (Fig. 3, Eq. 1). To decide that race honestly, a scan registers itself
// with its start time and per-byte speed; every subsequent timed write is
// applied to the scan's view only if it lands *before* the scanner's
// cursor reaches that byte:
//
//     visible  <=>  t_write <= t_scan_start + (offset - scan_begin) * per_byte
//
// Events execute in simulated-time order, so this reproduces exactly what
// a real linear hash pass would have read. Hashes downstream are computed
// over the returned view — detection is never scripted.
//
// The bytes live in one private anonymous mapping, zeroed lazily by the
// host kernel page by page, with a PROT_NONE guard page after it so an
// overrun still faults. install_image() can map a boot image's whole
// pages copy-on-write from a file instead of copying them (DESIGN.md
// §20); bytes() stays one contiguous span either way.
#pragma once

#include <algorithm>
#include <cstdint>
#include <list>
#include <span>
#include <vector>

#include "hw/fault_hooks.h"
#include "sim/time.h"

namespace satin::hw {

class Memory {
 public:
  // Dirty-tracking granule: every mutation (timed write, untimed poke)
  // marks each kChunkBytes-aligned chunk it touches as written since the
  // boot baseline. The secure world's digest cache serves an area from
  // the pristine image only while none of its chunks is marked.
  static constexpr std::size_t kChunkBytes = 256;

  explicit Memory(std::size_t size);
  ~Memory();
  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;

  std::size_t size() const { return size_; }

  // Untimed state access: boot-time initialization and test assertions.
  std::span<const std::uint8_t> bytes() const { return {data_, size_}; }
  std::uint8_t read(std::size_t offset) const;
  void poke(std::size_t offset, std::span<const std::uint8_t> data);

  // Trusted-boot install: leaves exactly the bytes and marks that
  // poke(0, image) leaves. When `fd` is a file whose first image.size()
  // bytes are `image`, this memory was never mutated and no scan is
  // active, the image's whole pages are mapped copy-on-write (MAP_PRIVATE)
  // from `fd` and only a partial last page is copied; a later write to
  // this memory never reaches the file or any other memory mapping it.
  // Otherwise (or when mmap fails, or fd < 0) it copies. Returns true
  // when it mapped.
  bool install_image(std::span<const std::uint8_t> image, int fd);

  // Timed write from a running world. `now` must be the current simulated
  // time; active scans resolve visibility against it.
  void write(sim::Time now, std::size_t offset,
             std::span<const std::uint8_t> data);

  // Handle to an in-progress linear scan.
  class ScanToken {
   public:
    ScanToken() = default;
    bool valid() const { return id_ != 0; }

   private:
    friend class Memory;
    explicit ScanToken(std::uint64_t id) : id_(id) {}
    std::uint64_t id_ = 0;
  };

  // What a finished scan observed. When no timed write overlapped the
  // scan window and no fault glitch flipped a bit of it (the
  // overwhelmingly common case in the benches) this is a zero-copy window
  // into physical memory, valid until the next mutation (write/poke) or
  // scan registration — hash it immediately. Otherwise it owns the
  // materialized private view.
  class ScanView {
   public:
    ScanView() = default;
    // Moves keep the span valid (a moved vector keeps its heap buffer);
    // copies must re-anchor it onto the copied storage.
    ScanView(ScanView&&) = default;
    ScanView& operator=(ScanView&&) = default;
    ScanView(const ScanView& other)
        : storage_(other.storage_),
          span_(storage_.empty() ? other.span_
                                 : std::span<const std::uint8_t>(storage_)) {}
    ScanView& operator=(const ScanView& other) {
      storage_ = other.storage_;
      span_ = storage_.empty() ? other.span_
                               : std::span<const std::uint8_t>(storage_);
      return *this;
    }

    std::span<const std::uint8_t> bytes() const { return span_; }
    std::size_t size() const { return span_.size(); }
    std::uint8_t operator[](std::size_t i) const { return span_[i]; }
    auto begin() const { return span_.begin(); }
    auto end() const { return span_.end(); }
    // True when the scan raced a write or took a glitch and owns a
    // private copy.
    bool owned() const { return !storage_.empty(); }

    std::vector<std::uint8_t> to_vector() const {
      return {span_.begin(), span_.end()};
    }

    friend bool operator==(const ScanView& view,
                           const std::vector<std::uint8_t>& rhs) {
      return std::equal(view.begin(), view.end(), rhs.begin(), rhs.end());
    }

   private:
    friend class Memory;
    explicit ScanView(std::vector<std::uint8_t> storage)
        : storage_(std::move(storage)), span_(storage_) {}
    explicit ScanView(std::span<const std::uint8_t> window) : span_(window) {}

    std::vector<std::uint8_t> storage_;  // empty on the zero-copy path
    std::span<const std::uint8_t> span_;
  };

  // Starts a linear scan of [offset, offset+length) beginning at `start`,
  // advancing `per_byte_ps` picoseconds per byte. Works for both direct
  // hashing (cursor = hash position) and snapshotting (cursor = copy
  // position; the copy is immune to writes after its touch time, matching
  // §IV-B1's snapshot discussion).
  ScanToken begin_scan(sim::Time start, std::size_t offset, std::size_t length,
                       double per_byte_ps);

  // Ends the scan and returns the bytes as the scanner observed them.
  // Copy-on-first-overlap: the view is only materialized (full-window
  // copy) when a fault glitch flips one of its bits or the moment a timed
  // write or poke first overlaps the window; a scan nothing raced or
  // glitched reads physical memory directly, copy-free.
  ScanView finish_scan(ScanToken token);

  // Drops a scan without reading the result (e.g. aborted introspection).
  void cancel_scan(ScanToken token);

  std::size_t active_scan_count() const { return scans_.size(); }

  // Total timed writes observed (diagnostics).
  std::uint64_t write_count() const { return write_count_; }

  // --- Dirty tracking since the boot baseline ---------------------------
  // Clears every chunk's written-since-baseline mark: the bytes now in
  // memory are the pristine post-boot state. A chunk no write or poke has
  // marked since still holds exactly the bytes the kernel image installed
  // — the precondition for serving its digest from a shared
  // pristine-image cache.
  void stamp_baseline();

  // True when stamp_baseline() has run and no write or poke since has
  // touched a chunk overlapping [offset, offset+length); false before the
  // first stamp. Tests 64 chunk marks a step.
  bool untouched_since_baseline(std::size_t offset, std::size_t length) const;

  // Fault-injection seam: consulted as each scan registers; may flip bits
  // in what the scanner will observe (transient read glitch — the backing
  // bytes stay intact and unmarked, so a re-read comes back clean).
  void set_fault_hooks(FaultHooks* hooks) { fault_hooks_ = hooks; }

 private:
  struct ActiveScan {
    std::uint64_t id;
    sim::Time start;
    std::size_t offset;
    std::size_t length;
    double per_byte_ps;
    // Bytes as the scanner sees them; empty until a glitch flips a bit of
    // the window or the first overlapping mutation snapshots it.
    std::vector<std::uint8_t> view;
    bool materialized = false;
  };

  // Snapshots the window of every unmaterialized scan overlapping
  // [offset, offset + length) — must run before the backing bytes change.
  void materialize_overlapping(std::size_t offset, std::size_t length);

  // Fail-fast range validation for the write paths: throws out_of_range
  // with offset/len/size spelled out, overflow-safe (offset + len may not
  // be representable).
  void check_range(const char* what, std::size_t offset,
                   std::size_t length) const;

  // Marks every chunk overlapping [offset, offset+length) written.
  void mark_written(std::size_t offset, std::size_t length);

  // The mapping: size_ usable bytes rounded up to whole pages, then one
  // PROT_NONE guard page; map_bytes_ covers both and is what the
  // destructor unmaps. data_ is initialized from the two fields above it,
  // so they must stay declared first.
  std::size_t size_;
  std::size_t map_bytes_;
  std::uint8_t* data_;
  FaultHooks* fault_hooks_ = nullptr;
  std::list<ActiveScan> scans_;
  std::uint64_t next_scan_id_ = 1;
  std::uint64_t write_count_ = 0;
  bool mutated_ = false;  // any write or poke yet: install_image copies
  bool baseline_stamped_ = false;
  // Per chunk, one bit: written since the baseline; 64 chunks a word.
  std::vector<std::uint64_t> written_;
};

}  // namespace satin::hw
