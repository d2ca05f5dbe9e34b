#include "sim/rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <random>
#include <set>

namespace satin::sim {
namespace {

// Forces the base kernel flavor (or keeps CPU dispatch) for one scope, and
// restores CPU dispatch on the way out, also out of a failed ASSERT.
class KernelFlavor {
 public:
  explicit KernelFlavor(bool base) { detail::force_base_draw_kernels(base); }
  ~KernelFlavor() { detail::force_base_draw_kernels(false); }
  KernelFlavor(const KernelFlavor&) = delete;
  KernelFlavor& operator=(const KernelFlavor&) = delete;
};

const char* flavor_name(bool base) { return base ? "base" : "dispatched"; }

// Bit-level equality: the draw path promises to replicate the libstdc++
// facilities it replaced exactly, not merely approximately.
::testing::AssertionResult BitsEqual(double want, double got) {
  std::uint64_t w = 0, g = 0;
  std::memcpy(&w, &want, sizeof(w));
  std::memcpy(&g, &got, sizeof(g));
  if (w == g) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "want " << want << " (0x" << std::hex << w << "), got " << got
         << " (0x" << g << ")";
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsDeterministicByName) {
  Rng a(7), b(7);
  Rng fa = a.fork("introspector");
  Rng fb = b.fork("introspector");
  EXPECT_EQ(fa.next_u64(), fb.next_u64());
}

TEST(Rng, ForksWithDifferentNamesAreIndependent) {
  Rng root(7);
  Rng a = root.fork("a");
  Rng b = root.fork("b");
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.38e-6, 3.60e-6);
    EXPECT_GE(u, 2.38e-6);
    EXPECT_LT(u, 3.60e-6);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(0, 4));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 4);
}

TEST(Rng, IndexCoversRange) {
  Rng rng(9);
  std::set<std::size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.index(6));
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, TruncatedNormalStaysInBounds) {
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.truncated_normal(1.07e-8, 5e-10, 9.23e-9, 1.14e-8);
    EXPECT_GE(x, 9.23e-9);
    EXPECT_LE(x, 1.14e-8);
  }
}

TEST(Rng, TruncatedNormalDegenerateClamps) {
  Rng rng(5);
  // Mean far outside [lo, hi]: must clamp, not loop forever.
  const double x = rng.truncated_normal(10.0, 1e-12, 0.0, 1.0);
  EXPECT_EQ(x, 1.0);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, UniformDurationInclusiveBounds) {
  Rng rng(11);
  const Duration lo = Duration::from_us(1);
  const Duration hi = Duration::from_us(2);
  for (int i = 0; i < 1000; ++i) {
    const Duration d = rng.uniform_duration(lo, hi);
    EXPECT_GE(d, lo);
    EXPECT_LE(d, hi);
  }
}

TEST(Rng, ShufflePermutes) {
  Rng rng(13);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v.begin(), v.end());
  auto resorted = v;
  std::sort(resorted.begin(), resorted.end());
  EXPECT_EQ(resorted, sorted);
}

TEST(Rng, LognormalPositive) {
  Rng rng(14);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.lognormal(-8.0, 0.55), 0.0);
  }
}

// ---------------------------------------------------------------------------
// Differential tests. The engine and the log/exp-free distributions
// (uniform, uniform_int, bernoulli) are still pinned bit for bit to their
// std:: references — those never shifted. The log/exp-based distributions
// (normal, truncated_normal, lognormal) moved from libm to the in-repo
// fm_log/fm_exp in PR-8 (a one-time, documented stream shift;
// see sim/fastmath.h): they are pinned here against independently written
// reference loops that share only the fm_* primitives — which
// fastmath_test.cpp pins to golden bits in turn — so any change in draw
// count, operation order, or the primitives themselves fails loudly.

// Reference Marsaglia polar normal: the consumption pattern Rng::normal
// promises (fresh distribution per call, spare variate discarded),
// written against std::mt19937_64 + std::uniform_real_distribution.
double ref_normal(std::mt19937_64& eng, double mean, double stddev) {
  double x, y, r2;
  do {
    x = 2.0 * std::uniform_real_distribution<double>(0.0, 1.0)(eng) - 1.0;
    y = 2.0 * std::uniform_real_distribution<double>(0.0, 1.0)(eng) - 1.0;
    r2 = x * x + y * y;
  } while (r2 > 1.0 || r2 == 0.0);
  const double mult = std::sqrt(-2.0 * fm_log(r2) / r2);
  return y * mult * stddev + mean;
}

double ref_lognormal(std::mt19937_64& eng, double mu, double sigma) {
  return fm_exp(sigma * ref_normal(eng, 0.0, 1.0) + mu);
}

TEST(RngDifferential, EngineStreamMatchesStdMt19937_64) {
  // The twist runs in the dispatched kernel flavor, so the stream is
  // checked under it and under the forced base flavor: five seeds of 400k
  // draws each, 2M per flavor, crossing the 312-word twist ~6,400 times.
  for (const bool base : {false, true}) {
    const KernelFlavor flavor(base);
    for (const std::uint64_t seed :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5489},
          std::uint64_t{0xDEADBEEFCAFEBABEull}, ~std::uint64_t{0}}) {
      std::mt19937_64 ref(seed);
      Mt19937_64 ours(seed);
      for (int i = 0; i < 400000; ++i) {
        ASSERT_EQ(ref(), ours()) << flavor_name(base) << " flavor, seed "
                                 << seed << " draw " << i;
      }
    }
  }
}

TEST(RngDifferential, UniformMatchesStdUniformRealDistribution) {
  std::mt19937_64 ref(7);
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    const double want = std::uniform_real_distribution<double>(0.0, 1.0)(ref);
    ASSERT_TRUE(BitsEqual(want, rng.uniform())) << "draw " << i;
  }
  std::mt19937_64 ref2(11);
  Rng rng2(11);
  for (int i = 0; i < 100000; ++i) {
    const double want =
        std::uniform_real_distribution<double>(2.38e-6, 3.60e-6)(ref2);
    ASSERT_TRUE(BitsEqual(want, rng2.uniform(2.38e-6, 3.60e-6)))
        << "draw " << i;
  }
}

TEST(RngDifferential, NormalMatchesPolarReferencePerCall) {
  const double params[][2] = {
      {0.0, 1.0}, {1.07e-8, 5e-10}, {5.80e-3, 2.0e-4}, {-3.5, 2.75}};
  for (const auto& p : params) {
    std::mt19937_64 ref(13);
    Rng rng(13);
    for (int i = 0; i < 50000; ++i) {
      ASSERT_TRUE(BitsEqual(ref_normal(ref, p[0], p[1]),
                            rng.normal(p[0], p[1])))
          << "params (" << p[0] << ", " << p[1] << ") draw " << i;
    }
  }
}

TEST(RngDifferential, TruncatedNormalMatchesReferenceLoop) {
  std::mt19937_64 ref(5);
  Rng rng(5);
  const double mean = 1.55e-4, sd = 3.5e-5, lo = 0.95e-4, hi = 2.6e-4;
  for (int i = 0; i < 50000; ++i) {
    double want = std::clamp(mean, lo, hi);
    for (int tries = 0; tries < 1024; ++tries) {
      const double x = ref_normal(ref, mean, sd);
      if (x >= lo && x <= hi) {
        want = x;
        break;
      }
    }
    ASSERT_TRUE(BitsEqual(want, rng.truncated_normal(mean, sd, lo, hi)))
        << "draw " << i;
  }
}

// Golden first draws of the run-of-record stream: pins the fm-based
// sequence itself (the references above share fm_log/fm_exp with the
// implementation, so alone they could not catch a shift in those).
TEST(RngDifferential, DistributionGoldenBits) {
  const auto b = [](double x) {
    std::uint64_t v = 0;
    std::memcpy(&v, &x, sizeof(v));
    return v;
  };
  Rng n(101);
  EXPECT_EQ(b(n.normal(0.0, 1.0)), 0x3FDD751D898B57DBull);
  EXPECT_EQ(b(n.normal(0.0, 1.0)), 0xBFDE46FF28FBDFCEull);
  Rng t(102);
  EXPECT_EQ(b(t.truncated_normal(1.55e-4, 3.5e-5, 0.95e-4, 2.6e-4)),
            0x3F25CFBCF243C46Full);
  Rng l(104);
  EXPECT_EQ(b(l.lognormal(-8.0, 0.55)), 0x3F2F227F46FFC86Bull);
}

TEST(RngDifferential, BernoulliMatchesStdAndStaysStreamAligned) {
  std::mt19937_64 ref(17);
  Rng rng(17);
  for (int i = 0; i < 100000; ++i) {
    const double p = (i % 101) / 100.0;
    ASSERT_EQ(std::bernoulli_distribution(p)(ref), rng.bernoulli(p))
        << "draw " << i;
  }
  // Both consumed exactly one engine draw per call.
  EXPECT_EQ(ref(), rng.next_u64());
}

TEST(RngDifferential, LognormalMatchesReference) {
  std::mt19937_64 ref(23);
  Rng rng(23);
  for (int i = 0; i < 50000; ++i) {
    ASSERT_TRUE(
        BitsEqual(ref_lognormal(ref, -8.0, 0.55), rng.lognormal(-8.0, 0.55)))
        << "draw " << i;
  }
}

TEST(RngDifferential, MixedDrawSequenceStaysAligned) {
  // Interleave every draw kind on one stream and mirror it with the std::
  // equivalents: catches any method consuming a different number of engine
  // draws, not just producing different values.
  std::mt19937_64 ref(29);
  Rng rng(29);
  for (int i = 0; i < 20000; ++i) {
    switch (i % 7) {
      case 0:
        ASSERT_TRUE(BitsEqual(
            std::uniform_real_distribution<double>(0.0, 1.0)(ref),
            rng.uniform()));
        break;
      case 1:
        ASSERT_EQ(std::uniform_int_distribution<std::int64_t>(-5, 999)(ref),
                  rng.uniform_int(-5, 999));
        break;
      case 2:
        ASSERT_TRUE(BitsEqual(ref_normal(ref, 2.0, 3.0), rng.normal(2.0, 3.0)));
        break;
      case 3:
        ASSERT_EQ(std::bernoulli_distribution(0.3)(ref), rng.bernoulli(0.3));
        break;
      case 4:
        ASSERT_TRUE(BitsEqual(
            std::uniform_real_distribution<double>(-2.5, 4.0)(ref),
            rng.uniform(-2.5, 4.0)));
        break;
      case 5:
        ASSERT_TRUE(
            BitsEqual(ref_lognormal(ref, 0.4, 1.7), rng.lognormal(0.4, 1.7)));
        break;
      case 6:
        ASSERT_EQ(ref(), rng.next_u64());
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Batched pipeline differentials: a kBatched stream must equal the
// kScalar per-draw oracle bit for bit at every block size — the
// whole-trial scalar oracle in tests/campaign/trial_test.cpp rests on
// this.

// Block sizes straddling the kernel chunk boundaries: degenerate (1),
// small, odd (33 — forces ragged refill tails), and the default.
const std::size_t kBlocks[] = {1, 2, 4, 8, 33, kDefaultDrawBlock};

template <typename MakeStream>
void ExpectBatchedMatchesScalar(MakeStream make, int draws) {
  for (const std::size_t block : kBlocks) {
    auto scalar = make(DrawMode::kScalar, kDefaultDrawBlock);
    auto batched = make(DrawMode::kBatched, block);
    for (int i = 0; i < draws; ++i) {
      ASSERT_TRUE(BitsEqual(scalar.next(), batched.next()))
          << "block " << block << " draw " << i;
    }
  }
}

TEST(RngBatched, CanonicalStreamMatchesScalar) {
  ExpectBatchedMatchesScalar(
      [](DrawMode m, std::size_t b) { return CanonicalStream(Rng(31), m, b); },
      20000);
}

TEST(RngBatched, TruncatedNormalStreamMatchesScalar) {
  // The duel's cross-core delay parameterization (modest rejection rate).
  ExpectBatchedMatchesScalar(
      [](DrawMode m, std::size_t b) {
        return TruncatedNormalStream(Rng(41), 1.55e-4, 3.5e-5, 0.95e-4,
                                     2.6e-4, m, b);
      },
      20000);
}

TEST(RngBatched, TruncatedNormalHeavyRejectionMatchesScalar) {
  // Bounds half a sigma wide: ~62% of candidates rejected, so the carried
  // miss counter is exercised across nearly every refill.
  ExpectBatchedMatchesScalar(
      [](DrawMode m, std::size_t b) {
        return TruncatedNormalStream(Rng(43), 0.0, 1.0, -0.25, 0.25, m, b);
      },
      8000);
}

TEST(RngBatched, TruncatedNormalClampFallbackMatchesScalar) {
  // Mean far outside [lo, hi]: every candidate misses, so each output is
  // the 1024-try clamp. The batched path must count misses — not polar
  // rejections — exactly like the scalar loop counts completed normals.
  ExpectBatchedMatchesScalar(
      [](DrawMode m, std::size_t b) {
        return TruncatedNormalStream(Rng(47), 10.0, 1e-12, 0.0, 1.0, m, b);
      },
      5);
}

TEST(RngBatched, TruncatedNormalNearClampBoundaryMatchesScalar) {
  // ~8 sigma bounds: rejection is overwhelming but not total, so miss
  // runs grow long without (usually) reaching 1024 — the regime where an
  // off-by-one in the carried counter would first surface.
  ExpectBatchedMatchesScalar(
      [](DrawMode m, std::size_t b) {
        return TruncatedNormalStream(Rng(53), 0.0, 1.0, 8.0, 9.0, m, b);
      },
      3);
}

TEST(RngBatched, DispatchedKernelsMatchBaseFlavor) {
  // On hosts where draw_kernels() resolves to a wider ISA flavor, this is
  // the cross-ISA bit-identity check; where it resolves to base it is a
  // tautology, and the real check runs on the wide CI host. Besides the
  // two streams it covers the engine's own twist and tempering: per-call
  // draws and blocks of every length from 1022 down to 973.
  const auto draw = [] {
    std::vector<std::uint64_t> bits;
    TruncatedNormalStream s(Rng(67), 1.55e-4, 3.5e-5, 0.95e-4, 2.6e-4,
                            DrawMode::kBatched);
    CanonicalStream c(Rng(71), DrawMode::kBatched);
    Mt19937_64 e(83);
    for (int i = 0; i < 30000; ++i) {
      bits.push_back(std::bit_cast<std::uint64_t>(s.next()));
      bits.push_back(std::bit_cast<std::uint64_t>(c.next()));
      bits.push_back(e());
    }
    std::vector<std::uint64_t> block(1022);
    for (std::size_t n = block.size(); n > 972; --n) {
      e.generate_block(block.data(), n);
      bits.insert(bits.end(), block.begin(), block.begin() + n);
    }
    return bits;
  };
  const std::vector<std::uint64_t> wide = draw();
  std::vector<std::uint64_t> base;
  {
    const KernelFlavor flavor(true);
    base = draw();
  }
  ASSERT_EQ(wide.size(), base.size());
  for (std::size_t i = 0; i < wide.size(); ++i) {
    ASSERT_EQ(wide[i], base[i]) << "draw " << i;
  }
}

TEST(RngBatched, DispatchPicksAvx2ExactlyWhenTheCpuHasIt) {
  // A silent fallback to the base flavor would keep every output
  // identical, so no identity test could catch it; this one does.
#if defined(SATIN_KERNELS_HAVE_AVX2)
  const bool avx2 = __builtin_cpu_supports("avx2");
#else
  const bool avx2 = false;
#endif
  EXPECT_EQ(&detail::draw_kernels() != &detail::base_draw_kernels(), avx2);
  {
    const KernelFlavor flavor(true);
    EXPECT_EQ(&detail::draw_kernels(), &detail::base_draw_kernels());
  }
  EXPECT_EQ(&detail::draw_kernels() != &detail::base_draw_kernels(), avx2);
}

TEST(RngBatched, ScalarStreamLeavesEngineIdenticalToDirectCalls) {
  // kScalar streams are pass-throughs: a consumer holding one behaves
  // exactly like one calling Rng directly (same draws, same engine use).
  Rng direct(73);
  TruncatedNormalStream stream(Rng(73), 1.55e-4, 3.5e-5, 0.95e-4, 2.6e-4,
                               DrawMode::kScalar);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(BitsEqual(
        direct.truncated_normal(1.55e-4, 3.5e-5, 0.95e-4, 2.6e-4),
        stream.next()));
  }
}

TEST(RngBatched, EngineGenerateBlockMatchesPerCallDraws) {
  // Under each kernel flavor: engine a draws in blocks, engine b per call,
  // and both must equal std::mt19937_64.
  for (const bool base : {false, true}) {
    const KernelFlavor flavor(base);
    Mt19937_64 a(79), b(79);
    std::mt19937_64 ref(79);
    std::vector<std::uint64_t> block(10007);  // prime: ragged twist overlap
    a.generate_block(block.data(), block.size());
    for (std::size_t i = 0; i < block.size(); ++i) {
      const std::uint64_t want = ref();
      ASSERT_EQ(block[i], want) << flavor_name(base) << " draw " << i;
      ASSERT_EQ(b(), want) << flavor_name(base) << " draw " << i;
    }
    // Mixed consumption on one engine: odd block lengths that start and
    // end at shifting offsets of the twist, with 0-2 per-call draws
    // between blocks.
    const std::size_t lengths[] = {1, 3, 311, 312, 313, 625, 7, 1249};
    for (std::size_t round = 0; round < 600; ++round) {
      block.resize(lengths[round % 8] + round % 5);
      a.generate_block(block.data(), block.size());
      for (std::size_t i = 0; i < block.size(); ++i) {
        const std::uint64_t want = ref();
        ASSERT_EQ(block[i], want)
            << flavor_name(base) << " round " << round << " draw " << i;
        ASSERT_EQ(b(), want);
      }
      for (std::size_t k = 0; k < round % 3; ++k) {
        const std::uint64_t want = ref();
        ASSERT_EQ(a(), want) << flavor_name(base) << " round " << round;
        ASSERT_EQ(b(), want);
      }
    }
    ASSERT_EQ(a(), ref());
  }
}

}  // namespace
}  // namespace satin::sim
