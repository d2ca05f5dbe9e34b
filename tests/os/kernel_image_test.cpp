#include "os/kernel_image.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/satin.h"
#include "hw/memory.h"
#include "scenario/scenario.h"
#include "secure/hash.h"
#include "secure/pristine_base.h"
#include "sim/parallel.h"

namespace satin::os {
namespace {

KernelImage make_image() { return KernelImage(make_default_map()); }

TEST(KernelImage, SizeMatchesMap) {
  const KernelImage image = make_image();
  EXPECT_EQ(image.size(), image.map().total_size());
  EXPECT_EQ(image.size(), 11'916'240u);
}

TEST(KernelImage, ContentIsDeterministicInSeed) {
  const KernelImage a(make_default_map(), 123);
  const KernelImage b(make_default_map(), 123);
  const KernelImage c(make_default_map(), 124);
  EXPECT_EQ(a.bytes(), b.bytes());
  EXPECT_NE(a.bytes(), c.bytes());
}

TEST(KernelImage, SyscallEntryOffsetsAreContiguousEightByteSlots) {
  const KernelImage image = make_image();
  const std::size_t base = image.syscall_entry_offset(0);
  for (int nr = 1; nr < kSyscallTableEntries; ++nr) {
    EXPECT_EQ(image.syscall_entry_offset(nr),
              base + static_cast<std::size_t>(nr) * 8);
  }
}

TEST(KernelImage, SyscallEntryOffsetValidatesRange) {
  const KernelImage image = make_image();
  EXPECT_THROW(image.syscall_entry_offset(-1), std::out_of_range);
  EXPECT_THROW(image.syscall_entry_offset(kSyscallTableEntries),
               std::out_of_range);
}

TEST(KernelImage, SyscallEntriesHoldTextAddresses) {
  // Entries are little-endian VAs inside the kernel text mapping.
  const KernelImage image = make_image();
  const auto entry = image.benign_syscall_entry(kGettidSyscallNr);
  std::uint64_t va = 0;
  for (int b = 7; b >= 0; --b) {
    va = (va << 8) | entry[static_cast<std::size_t>(b)];
  }
  EXPECT_GE(va, 0xFFFFFF8008080000ull);
  EXPECT_LT(va, 0xFFFFFF8008080000ull + image.size());
  EXPECT_EQ(va % 4, 0u);  // instruction aligned
}

TEST(KernelImage, DistinctSyscallsHaveDistinctHandlers) {
  const KernelImage image = make_image();
  EXPECT_NE(image.benign_syscall_entry(1), image.benign_syscall_entry(2));
}

TEST(KernelImage, InstallCopiesImageIntoMemory) {
  const KernelImage image = make_image();
  hw::Memory memory(16 * 1024 * 1024);
  image.install(memory);
  const std::size_t off = image.syscall_entry_offset(kGettidSyscallNr);
  const auto entry = image.benign_syscall_entry(kGettidSyscallNr);
  for (int b = 0; b < 8; ++b) {
    EXPECT_EQ(memory.read(off + static_cast<std::size_t>(b)),
              entry[static_cast<std::size_t>(b)]);
  }
}

TEST(KernelImage, InstallRejectsSmallMemory) {
  const KernelImage image = make_image();
  hw::Memory memory(1024);
  EXPECT_THROW(image.install(memory), std::invalid_argument);
}

TEST(KernelImage, IrqVectorSlotIsInsideVectorsSymbol) {
  const KernelImage image = make_image();
  const auto vectors = image.map().find_symbol("vectors");
  ASSERT_TRUE(vectors.has_value());
  // AArch64 "IRQ from current EL, SPx" vector is at offset 0x280.
  EXPECT_EQ(image.irq_vector_offset(), vectors->offset + 0x280);
  EXPECT_EQ(image.benign_irq_vector().size(), 8u);
}

TEST(KernelImage, BenignAccessorsReflectImageBytes) {
  const KernelImage image = make_image();
  const std::size_t off = image.irq_vector_offset();
  const auto slot = image.benign_irq_vector();
  for (int b = 0; b < 8; ++b) {
    EXPECT_EQ(slot[static_cast<std::size_t>(b)],
              image.bytes()[off + static_cast<std::size_t>(b)]);
  }
}

// ---------------------------------------------------------------------------
// Shared immutable set-up (DESIGN.md §20): every Scenario, on every path,
// boots the one process-wide default image, and checkers on it share one
// pristine digest base. The shared image must be the image a fresh build
// gives — pinned here by size and whole-image digests.

TEST(KernelImage, DefaultImageHasPinnedSizeAndDigests) {
  const auto& image = default_kernel_image();
  ASSERT_NE(image, nullptr);
  EXPECT_EQ(&default_kernel_image(), &image);  // built once
  EXPECT_EQ(image->size(), 11'916'240u);
  const std::span<const std::uint8_t> bytes(image->bytes());
  EXPECT_EQ(secure::hash_bytes(secure::HashKind::kDjb2, bytes),
            0x779ec87f124ca8b5ull);
  EXPECT_EQ(secure::hash_bytes(secure::HashKind::kSdbm, bytes),
            0xd599a84e2157ebd4ull);
  EXPECT_EQ(secure::hash_bytes(secure::HashKind::kFnv1a, bytes),
            0xcfece480f80136bfull);
  EXPECT_EQ(image->bytes(), make_image().bytes());
}

TEST(KernelImage, ScenariosOnEveryPathShareOneImage) {
  scenario::Scenario a;
  scenario::Scenario b;
  scenario::ScenarioConfig unbooted;
  unbooted.boot = false;
  scenario::Scenario c(unbooted);
  EXPECT_EQ(&a.kernel(), default_kernel_image().get());
  EXPECT_EQ(&b.kernel(), &a.kernel());
  EXPECT_EQ(&c.kernel(), &a.kernel());
  // Each trial still owns its physical memory, holding the image.
  EXPECT_NE(a.platform().memory().bytes().data(),
            b.platform().memory().bytes().data());
  EXPECT_TRUE(std::equal(a.kernel().bytes().begin(), a.kernel().bytes().end(),
                         b.platform().memory().bytes().begin()));
}

// Four TrialRunner threads boot Scenarios and authorize SATIN at once
// (the thread-sanitizer job runs this): all share one image and one
// pristine base, and boot-time authorization never rebuilds a digest
// after the first trial built it.
TEST(KernelImage, TrialRunnerThreadsShareOneImageAndPristineBase) {
  struct Seen {
    const KernelImage* image = nullptr;
    const secure::PristineBase* base = nullptr;
    std::uint64_t first_digest = 0;
  };
  sim::TrialRunnerOptions options;
  options.jobs = 4;
  sim::TrialRunner runner(options);
  const auto seen = runner.run_collect(8, [](const sim::TrialContext& ctx) {
    scenario::ScenarioConfig config;
    config.platform.seed = ctx.seed;
    scenario::Scenario s(config);
    core::Satin satin(s.platform(), s.kernel(), s.tsp(), {});
    satin.checker().authorize_boot_state();
    const auto& base =
        satin.checker().introspector().digest_cache().pristine_base();
    Seen out;
    out.image = &s.kernel();
    out.base = base.get();
    if (base != nullptr) {
      const core::Area& first = satin.checker().areas()[0];
      out.first_digest =
          *base->area_digest(secure::HashKind::kDjb2, first.offset, first.size);
    }
    return out;
  });
  ASSERT_EQ(seen.size(), 8u);
  ASSERT_NE(seen[0].base, nullptr);
  const std::uint64_t digests = seen[0].base->digests_built();
  EXPECT_GT(digests, 0u);
  for (const Seen& trial : seen) {
    EXPECT_EQ(trial.image, default_kernel_image().get());
    EXPECT_EQ(trial.base, seen[0].base);
    EXPECT_EQ(trial.first_digest, seen[0].first_digest);
  }
  // One digest per (hash kind, area), however many trials.
  scenario::Scenario s;
  core::Satin satin(s.platform(), s.kernel(), s.tsp(), {});
  satin.checker().authorize_boot_state();
  EXPECT_EQ(seen[0].base->digests_built(), digests);
}

// A default-path trial really serves untouched areas from the shared
// base, so the sharing cannot silently turn off; a checker on a one-off
// image gets no base.
TEST(KernelImage, DefaultPathTrialServesChunksFromThePristineBase) {
  scenario::Scenario s;
  core::SatinConfig config;
  config.tp_s = 0.05;
  core::Satin satin(s.platform(), s.kernel(), s.tsp(), config);
  satin.start();
  s.run_for(sim::Duration::from_sec(2));
  ASSERT_GT(satin.rounds(), 0u);
  const auto& cache = satin.checker().introspector().digest_cache();
  ASSERT_NE(cache.pristine_base(), nullptr);
  EXPECT_GT(cache.stats().hits, 0u);
  EXPECT_GT(cache.stats().bytes_skipped, 0u);

  const KernelImage one_off = make_image();
  core::Satin other(s.platform(), one_off, s.tsp(), {});
  EXPECT_EQ(other.checker().introspector().digest_cache().pristine_base(),
            nullptr);
}

// The pristine digest base memoizes one digest per (hash kind, area) over
// the shared image. Serving from it must be bit-for-bit what hashing the
// bytes produces — over SATIN's real default area set, under every hash.
TEST(KernelImage, PristineBaseChainsMatchDirectHashing) {
  const auto& image = default_kernel_image();
  secure::PristineBase base(image,
                            std::span<const std::uint8_t>(image->bytes()));
  ASSERT_EQ(base.size(), image->size());

  scenario::Scenario s;
  const core::Satin satin(s.platform(), s.kernel(), s.tsp(), {});
  const std::vector<core::Area>& areas = satin.checker().areas();
  ASSERT_GT(areas.size(), 1u);
  for (const secure::HashKind kind :
       {secure::HashKind::kDjb2, secure::HashKind::kSdbm,
        secure::HashKind::kFnv1a}) {
    for (const core::Area& a : areas) {
      const std::span<const std::uint8_t> area(image->bytes().data() + a.offset,
                                               a.size);
      const std::optional<std::uint64_t> digest =
          base.area_digest(kind, a.offset, a.size);
      ASSERT_TRUE(digest.has_value())
          << secure::to_string(kind) << " " << a.label;
      EXPECT_EQ(*digest, secure::hash_bytes(kind, area))
          << secure::to_string(kind) << " " << a.label;
      // Memoized: the second request builds nothing.
      const std::uint64_t built = base.digests_built();
      EXPECT_EQ(base.area_digest(kind, a.offset, a.size), digest);
      EXPECT_EQ(base.digests_built(), built);
    }
  }
  EXPECT_EQ(base.digests_built(), 3 * areas.size());
}

// Installing the default image maps its pages and copies nothing through
// the fallback; a one-off image, or a memory already written, copies.
TEST(KernelImage, DefaultInstallMapsAndOtherInstallsCopy) {
  const auto& image = default_kernel_image();
  const std::uint64_t before = KernelImage::copied_install_bytes();
  hw::Memory mapped(16 * 1024 * 1024);
  image->install(mapped);
  EXPECT_EQ(KernelImage::copied_install_bytes(), before);

  hw::Memory written(16 * 1024 * 1024);
  written.poke(written.size() - 1, std::vector<std::uint8_t>{1});
  image->install(written);
  EXPECT_EQ(KernelImage::copied_install_bytes(), before + image->size());

  const KernelImage one_off = make_image();
  hw::Memory copied(16 * 1024 * 1024);
  one_off.install(copied);
  EXPECT_EQ(KernelImage::copied_install_bytes(), before + 2 * image->size());

  EXPECT_TRUE(std::equal(image->bytes().begin(), image->bytes().end(),
                         mapped.bytes().begin()));
  EXPECT_TRUE(std::equal(image->bytes().begin(), image->bytes().end(),
                         copied.bytes().begin()));
  // And the same marks: after a baseline and one poke into the image's
  // last chunk, only that chunk reads as touched, in both.
  const std::vector<std::uint8_t> mark = {0x5A};
  for (hw::Memory* mem : {&mapped, &copied}) {
    mem->stamp_baseline();
    mem->poke(image->size() - 1, mark);
  }
  const std::size_t last = (image->size() - 1) / hw::Memory::kChunkBytes *
                           hw::Memory::kChunkBytes;
  for (std::size_t off = 0; off < mapped.size();
       off += hw::Memory::kChunkBytes) {
    ASSERT_EQ(mapped.untouched_since_baseline(off, hw::Memory::kChunkBytes),
              off != last)
        << off;
    ASSERT_EQ(copied.untouched_since_baseline(off, hw::Memory::kChunkBytes),
              off != last)
        << off;
  }
}

}  // namespace
}  // namespace satin::os
