#include "sim/rng.h"

#include <atomic>
#include <new>

#include <sys/mman.h>

#include "sim/fnv1a.h"

namespace satin::sim {

void Mt19937_64::refill() {
  constexpr std::uint64_t kUpperMask = 0xFFFFFFFF80000000ull;
  constexpr std::uint64_t kLowerMask = 0x7FFFFFFFull;
  constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ull;
  // The standard twist, split into two dependence-free passes plus the
  // wrap-around word so the vectorizer can run both loops wide. The
  // branchless (word & 1) * kMatrixA is value-identical to the spec's
  // conditional xor.
  for (unsigned k = 0; k < kStateSize - kMid; ++k) {
    const std::uint64_t y =
        (state_[k] & kUpperMask) | (state_[k + 1] & kLowerMask);
    state_[k] = state_[k + kMid] ^ (y >> 1) ^ ((state_[k + 1] & 1) * kMatrixA);
  }
  for (unsigned k = kStateSize - kMid; k < kStateSize - 1; ++k) {
    const std::uint64_t y =
        (state_[k] & kUpperMask) | (state_[k + 1] & kLowerMask);
    state_[k] =
        state_[k - (kStateSize - kMid)] ^ (y >> 1) ^
        ((state_[k + 1] & 1) * kMatrixA);
  }
  const std::uint64_t y =
      (state_[kStateSize - 1] & kUpperMask) | (state_[0] & kLowerMask);
  state_[kStateSize - 1] =
      state_[kMid - 1] ^ (y >> 1) ^ ((state_[0] & 1) * kMatrixA);
  next_ = 0;
}

void Mt19937_64::generate_block(result_type* out, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    if (next_ >= kStateSize) refill();
    const std::size_t run =
        std::min<std::size_t>(n - done, kStateSize - next_);
    const result_type* src = state_ + next_;
    // Pure bit ops over a contiguous run: vectorizes at this TU's -O3.
    for (std::size_t j = 0; j < run; ++j) {
      result_type y = src[j];
      y ^= (y >> 29) & 0x5555555555555555ull;
      y ^= (y << 17) & 0x71D67FFFEDA60000ull;
      y ^= (y << 37) & 0xFFF7EEE000000000ull;
      y ^= y >> 43;
      out[done + j] = y;
    }
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
