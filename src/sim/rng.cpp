#include "sim/rng.h"

#include <atomic>
#include <new>

#include <sys/mman.h>

#include "sim/fnv1a.h"

namespace satin::sim {

void Mt19937_64::refill() {
  detail::draw_kernels().twist(state_);
  next_ = 0;
}

void Mt19937_64::generate_block(result_type* out, std::size_t n) {
  const detail::DrawKernels& k = detail::draw_kernels();
  std::size_t done = 0;
  while (done < n) {
    if (next_ >= kStateSize) {
      k.twist(state_);
      next_ = 0;
    }
    const std::size_t run =
        std::min<std::size_t>(n - done, kStateSize - next_);
    k.temper(state_ + next_, out + done, run);
    next_ += static_cast<unsigned>(run);
    done += run;
  }
}

Rng Rng::fork(std::string_view name) {
  const std::uint64_t mixed = fnv1a(name.data(), name.size()) ^ next_u64();
  return Rng(mixed);
}

// --------------------------------------------------------------------------
// Kernel dispatch.

namespace detail {

namespace base {
extern const DrawKernels kKernels;
}
#if defined(SATIN_KERNELS_HAVE_AVX2)
namespace avx2 {
extern const DrawKernels kKernels;
}
#endif

namespace {

const DrawKernels* pick_kernels() {
#if defined(SATIN_KERNELS_HAVE_AVX2)
  // Idempotent; makes the query valid even from a static initializer
  // that draws before libgcc's own constructor has run.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return &avx2::kKernels;
#endif
  return &base::kKernels;
}

std::atomic<const DrawKernels*> g_kernels{nullptr};

}  // namespace

const DrawKernels& draw_kernels() {
  const DrawKernels* k = g_kernels.load(std::memory_order_acquire);
  if (k == nullptr) {
    k = pick_kernels();
    g_kernels.store(k, std::memory_order_release);
  }
  return *k;
}

const DrawKernels& base_draw_kernels() { return base::kKernels; }

void force_base_draw_kernels(bool on) {
  g_kernels.store(on ? &base::kKernels : pick_kernels(),
                  std::memory_order_release);
}

void* map_pages(std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void unmap_pages(void* p, std::size_t bytes) noexcept { ::munmap(p, bytes); }

}  // namespace detail

// --------------------------------------------------------------------------
// Block streams. The truncated-normal refill runs whole kernel chunks, so
// its buffer carries one chunk of head-room past the block target; every
// buffer is sized in the constructor — steady-state draws never allocate
// (the bench_micro churn gate covers this).

CanonicalStream::CanonicalStream(Rng rng, DrawMode mode, std::size_t block)
    : rng_(rng), mode_(mode), block_(block < 1 ? 1 : block) {
  if (mode_ == DrawMode::kBatched) buf_.resize(block_);
}

void CanonicalStream::refill() {
  detail::draw_kernels().canonical_block(rng_.engine(), buf_.data(), block_);
  size_ = block_;
  pos_ = 0;
}

TruncatedNormalStream::TruncatedNormalStream(Rng rng, double mean,
                                             double stddev, double lo,
                                             double hi, DrawMode mode,
                                             std::size_t block)
    : rng_(rng),
      mean_(mean),
      stddev_(stddev),
      lo_(lo),
      hi_(hi),
      mode_(mode),
      block_(block < 1 ? 1 : block) {
  if (mode_ == DrawMode::kBatched) {
    buf_.resize(block_ + detail::kKernelChunkPairs);
  }
}

void TruncatedNormalStream::refill() {
  const detail::DrawKernels& k = detail::draw_kernels();
  std::size_t n = 0;
  while (n < block_) {
    n = k.truncated_normal_block(rng_.engine(), mean_, stddev_, lo_, hi_,
                                 &misses_, buf_.data(), n,
                                 detail::kKernelChunkPairs);
  }
  size_ = n;
  pos_ = 0;
}

}  // namespace satin::sim
