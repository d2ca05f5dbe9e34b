// Deterministic random-number generation for the simulator.
//
// Every stochastic quantity in the reproduction (context-switch jitter,
// per-byte hash jitter, cross-core visibility delays, SATIN's random
// deviations) draws from an Rng. A master seed fans out into independent
// named substreams so that adding a new consumer never perturbs the draws
// of existing ones — experiments stay bit-reproducible across code growth.
//
// The draw path is implemented in-repo, bit-identical to the libstdc++
// facilities it replaces (std::mt19937_64 plus the distribution adaptors
// the original implementation constructed per call). Two reasons:
//   1. Reproducibility. Recorded outputs — CI's jobs=1-vs-8 and digest
//      cache on/off byte-identity gates, EXPERIMENTS.md numbers — are
//      pinned to this exact draw sequence; owning the generator means a
//      standard-library update can never silently shift it.
//   2. Speed. Jitter draws dominate the long benches (~672M truncated
//      normals in one bench_satin_detection run); the inline fast path
//      drops the per-call distribution-object and generate_canonical
//      machinery, and the twist and tempering run in the dispatched draw
//      kernels, four lanes wide on an AVX2 CPU.
// tests/sim/rng_test.cpp locks every method to its std:: reference,
// draw for draw, so any divergence fails loudly.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string_view>
#include <vector>

#include "sim/fastmath.h"
#include "sim/time.h"

namespace satin::sim {

// Bit-identical reimplementation of std::mt19937_64 ([rand.eng.mers] with
// the standard's mt19937_64 parameters — the algorithm is fully specified,
// so the stream is portable across standard libraries by construction).
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  static constexpr result_type default_seed = 5489u;

  explicit Mt19937_64(result_type value = default_seed) { seed(value); }

  void seed(result_type value) {
    state_[0] = value;
    for (unsigned i = 1; i < kStateSize; ++i) {
      state_[i] =
          6364136223846793005ull * (state_[i - 1] ^ (state_[i - 1] >> 62)) + i;
    }
    next_ = kStateSize;
  }

  result_type operator()() {
    if (next_ >= kStateSize) refill();
    result_type y = state_[next_++];
    y ^= (y >> 29) & 0x5555555555555555ull;
    y ^= (y << 17) & 0x71D67FFFEDA60000ull;
    y ^= (y << 37) & 0xFFF7EEE000000000ull;
    y ^= y >> 43;
    return y;
  }

  // Writes the next n draws — the exact sequence n calls of operator()
  // would yield — tempered run-wise over the state buffer by the
  // dispatched draw kernels. The batched draw pipeline's bottom layer.
  void generate_block(result_type* out, std::size_t n);

 private:
  static constexpr unsigned kStateSize = 312;
  static constexpr unsigned kMid = 156;

  // Out of line on purpose: runs once per 312 draws, through the
  // dispatched draw kernels' twist (the twist was the hottest single
  // function in bench_satin_detection's profile).
  void refill();

  result_type state_[kStateSize];
  unsigned next_;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Derives an independent substream. FNV-1a over the name mixed with a
  // fresh draw keeps substreams decorrelated and stable by name.
  Rng fork(std::string_view name);

  std::uint64_t next_u64() { return engine_(); }

  // Uniform real in [0, 1). Identical to
  // std::uniform_real_distribution<double>(0, 1) over this engine.
  double uniform() { return canonical(); }
  // Uniform real in [lo, hi).
  double uniform(double lo, double hi) { return canonical() * (hi - lo) + lo; }
  // Uniform integer in [lo, hi], inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }
  // Uniform index in [0, n).
  std::size_t index(std::size_t n) {
    return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  bool bernoulli(double p) { return canonical() < p; }

  // Marsaglia polar method, replicating std::normal_distribution's
  // consumption pattern exactly — including the historical quirk that
  // this method constructed a fresh distribution per call, so the polar
  // method's cached second variate is always discarded (keeping it would
  // shift every downstream draw). The log is the in-repo fm_log (PR-8):
  // the batched pipeline must reproduce these values lane for lane, which
  // no libm build can promise — so the scalar oracle and the vector
  // kernels share one log. This is the run-of-record stream;
  // tests/sim/rng_test.cpp pins it against an independently written
  // reference plus golden draws.
  double normal(double mean, double stddev) {
    double x, y, r2;
    do {
      x = 2.0 * canonical() - 1.0;
      y = 2.0 * canonical() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2.0 * fm_log(r2) / r2);
    return y * mult * stddev + mean;
  }

  // Normal redrawn until it lands in [lo, hi]. Used for calibrated jitter
  // whose min/max the paper reports explicitly (Table I). Inline because
  // it is the hottest call in the tree (every cross-core staleness read).
  double truncated_normal(double mean, double stddev, double lo, double hi) {
    for (int i = 0; i < 1024; ++i) {
      const double x = normal(mean, stddev);
      if (x >= lo && x <= hi) return x;
    }
    // Degenerate parameterization; clamp rather than loop forever.
    return std::clamp(mean, lo, hi);
  }

  // Log-normal parameterized by the mean/sigma of the underlying normal.
  double lognormal(double mu, double sigma) {
    return fm_exp(sigma * normal(0.0, 1.0) + mu);
  }

  // Uniform Duration in [lo, hi].
  Duration uniform_duration(Duration lo, Duration hi) {
    return Duration::from_ps(uniform_int(lo.ps(), hi.ps()));
  }

  template <typename It>
  void shuffle(It first, It last) {
    std::shuffle(first, last, engine_);
  }

  Mt19937_64& engine() { return engine_; }

 private:
  // [0, 1) with 53-bit precision: what std::generate_canonical<double, 53>
  // computes for a full-range 64-bit engine — one draw, rounded to double,
  // scaled by 2^-64, clamped below 1.0 for the one draw (2^64 - 1) whose
  // conversion rounds up to 2^64.
  double canonical() {
    const double r = static_cast<double>(engine_()) * 0x1p-64;
    return r < 1.0 ? r : std::nextafter(1.0, 0.0);
  }

  Mt19937_64 engine_;
};

// ---------------------------------------------------------------------------
// Batched draw pipeline (PR-8).
//
// The detection duel is draw-bound (~672M truncated normals per bench run).
// Its one hot consumer, the prober's cross-core staleness read
// (attack::SharedTimeBuffer), takes one truncated normal and one
// spike-gate canonical per read, each from a *dedicated* substream with
// fixed parameters. That makes the draws precomputable: a block kernel
// refills the engine a few hundred draws at a time and pushes them through
// the polar/filter transforms as flat array passes that auto-vectorize.
// The schedule is filter-compaction — canonical pairs are consumed
// strictly in stream order, each pair either polar-rejects (no output) or
// yields a candidate that the truncation filter keeps or drops — which is
// exactly the order the scalar per-draw loop consumes them in, so the
// block outputs are bit-identical to the scalar oracle for any block size
// or vector width. tests/sim/rng_test.cpp differentials both streams at
// block sizes {1,2,4,8,33}, including rejection-heavy tails. Every other
// draw in the tree is a per-call Rng draw.
//
// DrawMode selects per consumer: kBatched is the block pipeline every
// platform uses by default (hw::PlatformConfig::draw_mode), kScalar the
// per-draw oracle the tests compare it against. Both modes read the same
// substreams, so their outputs are byte-identical by contract, not by
// luck.
// ---------------------------------------------------------------------------

enum class DrawMode {
  kScalar = 0,   // per-draw loop; the differential oracle of the tests
  kBatched = 1,  // block-kernel pipeline, bit-identical to kScalar
};

namespace detail {

// Exact u64 -> double in vectorizable ops: split halves, each exact,
// one rounding in the final add — the same value static_cast produces.
SATIN_FM_INLINE double u64_to_double_exact(std::uint64_t u) {
  const double dhi = std::bit_cast<double>((u >> 32) | 0x4530000000000000ull);
  const double dlo = std::bit_cast<double>((u & 0xFFFFFFFFull) |
                                           0x4330000000000000ull);
  return (dhi - (0x1p84 + 0x1p52)) + dlo;
}

// Rng::canonical() in vectorizable ops (the clamp becomes a blend).
SATIN_FM_INLINE double canonical_from_u64(std::uint64_t u) {
  const double r = u64_to_double_exact(u) * 0x1p-64;
  return r < 1.0 ? r : std::bit_cast<double>(0x3FEFFFFFFFFFFFFFull);
}

// Engine draws consumed per kernel call sit on the stack; this bounds the
// scratch (and the per-call overshoot a stream buffer must absorb).
inline constexpr std::size_t kKernelChunkPairs = 512;

// One compiled flavor of the block kernels (sim/rng_kernels.inc). The
// base flavor uses the project ISA; wider flavors are the same source
// compiled with vector extensions enabled, selected at runtime. Every
// engine's twist runs here, so every Rng draws through the dispatch.
struct DrawKernels {
  // Mt19937_64's twist: regenerates its 312-word state in place.
  void (*twist)(std::uint64_t* state);
  // Mt19937_64's tempering of n consecutive state words into n draws.
  void (*temper)(const std::uint64_t* state, std::uint64_t* out,
                 std::size_t n);
  // Fills out[0..n) with canonical [0,1) draws, one engine draw each.
  void (*canonical_block)(Mt19937_64& eng, double* out, std::size_t n);
  // Consumes `pairs` canonical pairs and appends, at out[count..], the
  // polar-accepted normals (scaled by stddev/mean) that land in [lo, hi];
  // returns the new count. `misses` carries the count of consecutive
  // out-of-range candidates across calls so the scalar oracle's 1024-try
  // clamp fallback reproduces exactly.
  std::size_t (*truncated_normal_block)(Mt19937_64& eng, double mean,
                                        double stddev, double lo, double hi,
                                        int* misses, double* out,
                                        std::size_t count, std::size_t pairs);
};

// Widest flavor the running CPU supports (resolved once).
const DrawKernels& draw_kernels();
// Project-ISA flavor, always available — the cross-ISA differential
// tests compare it against draw_kernels().
const DrawKernels& base_draw_kernels();
// Test hook: force draw_kernels() to the base flavor (false restores CPU
// dispatch). Not thread-safe against concurrent first use; call from
// test setup only.
void force_base_draw_kernels(bool on);

}  // namespace detail

// Default stream block: draws precomputed per refill (plus up to one
// kernel-chunk overshoot of buffer head-room for the pair-fed kernel).
inline constexpr std::size_t kDefaultDrawBlock = 4096;

namespace detail {

// Anonymous page mappings; throw std::bad_alloc when the kernel refuses.
void* map_pages(std::size_t bytes);
void unmap_pages(void* p, std::size_t bytes) noexcept;

// Stream buffers are whole pages mapped for the stream, not malloc heap
// blocks. From the heap, the 32-37 KiB buffers of a campaign worker's
// second trial filled holes that small allocations then took from a freed
// ~600 KB scan snapshot instead, so the next snapshot went to a fresh
// heap top and the worker's peak RSS rose by up to 600 KiB (EXPERIMENTS.md,
// "Batched draws by default"). Mapped buffers leave the heap as the
// scalar path leaves it.
template <typename T>
struct PageAllocator {
  using value_type = T;
  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) noexcept {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(map_pages(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    unmap_pages(p, n * sizeof(T));
  }
  friend bool operator==(PageAllocator, PageAllocator) { return true; }
};

using DrawBuffer = std::vector<double, PageAllocator<double>>;

}  // namespace detail

// Buffered single-distribution draw streams. Each owns a dedicated
// engine (fork one per consumer per distribution): bulk precomputation is
// only order-identical to per-draw consumption when nothing else reads
// the stream. In kScalar mode next() is the per-draw oracle on the same
// engine, so a consumer's draw sequence is independent of DrawMode.
class CanonicalStream {
 public:
  CanonicalStream(Rng rng, DrawMode mode,
                  std::size_t block = kDefaultDrawBlock);
  double next() {
    if (mode_ == DrawMode::kScalar) return rng_.uniform();
    if (pos_ == size_) refill();
    return buf_[pos_++];
  }

 private:
  void refill();
  Rng rng_;
  DrawMode mode_;
  std::size_t block_;
  std::size_t pos_ = 0, size_ = 0;
  detail::DrawBuffer buf_;
};

class TruncatedNormalStream {
 public:
  TruncatedNormalStream(Rng rng, double mean, double stddev, double lo,
                        double hi, DrawMode mode,
                        std::size_t block = kDefaultDrawBlock);
  double next() {
    if (mode_ == DrawMode::kScalar) {
      return rng_.truncated_normal(mean_, stddev_, lo_, hi_);
    }
    if (pos_ == size_) refill();
    return buf_[pos_++];
  }

 private:
  void refill();
  Rng rng_;
  double mean_, stddev_, lo_, hi_;
  DrawMode mode_;
  std::size_t block_;
  int misses_ = 0;
  std::size_t pos_ = 0, size_ = 0;
  detail::DrawBuffer buf_;
};

}  // namespace satin::sim
