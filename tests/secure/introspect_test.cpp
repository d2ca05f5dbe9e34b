#include "secure/introspect.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hw/fault_hooks.h"
#include "secure/authorized_store.h"
#include "secure/pristine_base.h"

namespace satin::secure {
namespace {

// Runs one scan to completion and returns its digest.
std::uint64_t scan_once(hw::Platform& platform, Introspector& intro,
                        std::size_t offset, std::size_t length) {
  std::uint64_t got = 0;
  intro.scan_async(0, offset, length,
                   [&](const ScanResult& r) { got = r.digest; });
  platform.engine().run_until(platform.engine().now() + sim::Duration::from_ms(200));
  return got;
}

TEST(Introspector, PerByteSampleRespectsTable1Bounds) {
  hw::Platform platform;
  Introspector direct(platform, HashKind::kDjb2, ScanStrategy::kDirectHash);
  Introspector snap(platform, HashKind::kDjb2,
                    ScanStrategy::kSnapshotThenHash);
  for (int i = 0; i < 2000; ++i) {
    const double a53 = direct.sample_per_byte_seconds(hw::CoreType::kLittleA53);
    EXPECT_GE(a53, 9.23e-9);
    EXPECT_LE(a53, 1.14e-8);
    const double a57 = direct.sample_per_byte_seconds(hw::CoreType::kBigA57);
    EXPECT_GE(a57, 6.67e-9);
    EXPECT_LE(a57, 7.50e-9);
    const double s53 = snap.sample_per_byte_seconds(hw::CoreType::kLittleA53);
    EXPECT_GE(s53, 9.24e-9);
    EXPECT_LE(s53, 1.57e-8);
  }
}

TEST(Introspector, ScanDurationMatchesPerByteSpeed) {
  hw::Platform platform;
  platform.memory().poke(0, std::vector<std::uint8_t>(1000, 0x5A));
  Introspector intro(platform);
  bool done = false;
  intro.scan_async(/*core=*/5, 0, 100'000, [&](const ScanResult& r) {
    done = true;
    const double dur = (r.scan_end - r.scan_start).sec();
    EXPECT_NEAR(dur, r.per_byte_s * 100'000, 1e-12);
    EXPECT_GE(r.per_byte_s, 6.67e-9);  // core 5 is an A57
    EXPECT_LE(r.per_byte_s, 7.50e-9);
  });
  platform.engine().run_until(sim::Time::from_ms(10));
  EXPECT_TRUE(done);
  EXPECT_EQ(intro.scans_completed(), 1u);
}

TEST(Introspector, CleanScanMatchesReferenceDigest) {
  hw::Platform platform;
  std::vector<std::uint8_t> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7);
  }
  platform.memory().poke(100, data);
  Introspector intro(platform);
  const std::uint64_t expected = intro.digest_reference(data);
  std::uint64_t got = 0;
  intro.scan_async(0, 100, data.size(),
                   [&](const ScanResult& r) { got = r.digest; });
  platform.engine().run_until(sim::Time::from_ms(1));
  EXPECT_EQ(got, expected);
}

TEST(Introspector, WriteBehindCursorEscapesDirectHash) {
  hw::Platform platform;
  Introspector intro(platform);
  const std::vector<std::uint8_t> benign(1 << 20, 0x00);
  const std::uint64_t clean = intro.digest_reference(benign);
  // Corrupt a byte near the start, then "recover" it shortly after the
  // scan begins — after the cursor passed it: the mismatch IS caught.
  platform.memory().poke(10, std::vector<std::uint8_t>{0xFF});
  std::uint64_t got = 0;
  intro.scan_async(5, 0, 1 << 20, [&](const ScanResult& r) { got = r.digest; });
  platform.engine().schedule_at(sim::Time::from_us(500), [&] {
    platform.memory().write(platform.engine().now(), 10,
                            std::vector<std::uint8_t>{0x00});
  });
  platform.engine().run_until(sim::Time::from_ms(100));
  EXPECT_NE(got, clean) << "cursor passed byte 10 before the recovery";
}

TEST(Introspector, EarlyRecoveryEscapesDetection) {
  hw::Platform platform;
  Introspector intro(platform);
  const std::vector<std::uint8_t> benign(1 << 20, 0x00);
  const std::uint64_t clean = intro.digest_reference(benign);
  // Corrupt a byte near the END; recover it before the cursor arrives.
  const std::size_t off = (1 << 20) - 5;
  platform.memory().poke(off, std::vector<std::uint8_t>{0xFF});
  std::uint64_t got = 0;
  intro.scan_async(5, 0, 1 << 20, [&](const ScanResult& r) { got = r.digest; });
  platform.engine().schedule_at(sim::Time::from_us(500), [&] {
    platform.memory().write(platform.engine().now(), off,
                            std::vector<std::uint8_t>{0x00});
  });
  platform.engine().run_until(sim::Time::from_ms(100));
  EXPECT_EQ(got, clean) << "byte recovered before the cursor reached it";
}

TEST(Introspector, StrategyNames) {
  EXPECT_STREQ(to_string(ScanStrategy::kDirectHash), "direct-hash");
  EXPECT_STREQ(to_string(ScanStrategy::kSnapshotThenHash), "snapshot");
}

// --- Digest cache integration ------------------------------------------
//
// The incremental cache must be invisible in every digest: repeated clean
// scans, raced scans and fault-glitched scans all return exactly what a
// cache-off run (and the byte reference) returns.

TEST(Introspector, RepeatedCleanScansHitTheCacheWithIdenticalDigests) {
  hw::Platform on_platform, off_platform;
  const auto data = std::make_shared<std::vector<std::uint8_t>>(8192);
  for (std::size_t i = 0; i < data->size(); ++i) {
    (*data)[i] = static_cast<std::uint8_t>(i * 13 + 1);
  }
  // Booted as RichOs boots: install, stamp the baseline, attach a base
  // over the installed bytes.
  const auto base = std::make_shared<PristineBase>(
      data, std::span<const std::uint8_t>(*data));
  for (hw::Platform* platform : {&on_platform, &off_platform}) {
    platform->memory().poke(0, *data);
    platform->memory().stamp_baseline();
  }
  Introspector on(on_platform), off(off_platform);
  on.digest_cache().set_pristine_base(base);
  off.digest_cache().set_pristine_base(base);
  off.digest_cache().set_enabled(false);
  const std::uint64_t reference = on.digest_reference(*data);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(scan_once(on_platform, on, 0, data->size()), reference) << round;
    EXPECT_EQ(scan_once(off_platform, off, 0, data->size()), reference)
        << round;
  }
  // Every round was served from the base — and the shadow (off) cache
  // did the identical bookkeeping, as the CI on-vs-off gate expects.
  EXPECT_EQ(on.digest_cache().stats().hits, 3 * 8192u / hw::Memory::kChunkBytes);
  EXPECT_EQ(on.digest_cache().stats().bytes_hashed, 0u);
  EXPECT_EQ(on.digest_cache().stats().hits, off.digest_cache().stats().hits);
  EXPECT_EQ(on.digest_cache().stats().misses,
            off.digest_cache().stats().misses);
}

TEST(Introspector, RacedScanBypassesTheCacheAndMatchesCacheOff) {
  // Script: warm the cache with a clean pass, then re-run the
  // write-behind-cursor race from above, then a final clean pass. The
  // raced round must bypass the cache (its view is a materialized private
  // copy) and the final round must be unpoisoned by it.
  auto run = [](Introspector& intro, hw::Platform& platform) {
    std::vector<std::uint64_t> digests;
    digests.push_back(scan_once(platform, intro, 0, 1 << 20));
    platform.memory().poke(10, std::vector<std::uint8_t>{0xFF});
    std::uint64_t raced = 0;
    intro.scan_async(5, 0, 1 << 20,
                     [&](const ScanResult& r) { raced = r.digest; });
    platform.engine().schedule_at(
        platform.engine().now() + sim::Duration::from_us(500), [&] {
          platform.memory().write(platform.engine().now(), 10,
                                  std::vector<std::uint8_t>{0x00});
        });
    platform.engine().run_until(platform.engine().now() +
                                sim::Duration::from_ms(200));
    digests.push_back(raced);
    digests.push_back(scan_once(platform, intro, 0, 1 << 20));
    return digests;
  };
  hw::Platform on_platform, off_platform;
  Introspector on(on_platform), off(off_platform);
  off.digest_cache().set_enabled(false);
  const auto d_on = run(on, on_platform);
  const auto d_off = run(off, off_platform);
  ASSERT_EQ(d_on.size(), 3u);
  EXPECT_EQ(d_on, d_off);
  // Byte references: the raced view is 0xFF at byte 10 (the recovery
  // landed behind the cursor), the clean passes see all zeros.
  std::vector<std::uint8_t> clean(1 << 20, 0x00);
  std::vector<std::uint8_t> corrupt = clean;
  corrupt[10] = 0xFF;
  EXPECT_EQ(d_on[0], on.digest_reference(clean));
  EXPECT_EQ(d_on[1], on.digest_reference(corrupt));
  EXPECT_EQ(d_on[2], on.digest_reference(clean));
  EXPECT_EQ(on.digest_cache().stats().bypasses, 1u);
  EXPECT_EQ(off.digest_cache().stats().bypasses, 1u);
}

namespace {
// Flips one bit of one scan-view byte, once; inert afterwards.
class GlitchOnceHooks : public hw::FaultHooks {
 public:
  explicit GlitchOnceHooks(std::size_t pos) : pos_(pos) {}
  hw::TimerFaultDecision on_program_secure(hw::CoreId, sim::Time) override {
    return {};
  }
  bool drop_secure_irq(hw::CoreId, hw::IrqId) override { return false; }
  bool fail_secure_entry(hw::CoreId) override { return false; }
  std::vector<hw::BitFlip> scan_flips(sim::Time, std::size_t length) override {
    if (!armed_ || pos_ >= length) return {};
    armed_ = false;
    return {{pos_, 0x01}};
  }

 private:
  std::size_t pos_;
  bool armed_ = true;
};
}  // namespace

TEST(Introspector, FaultGlitchedScanBypassesTheCacheAndMatchesCacheOff) {
  auto run = [](Introspector& intro, hw::Platform& platform) {
    std::vector<std::uint64_t> digests;
    digests.push_back(scan_once(platform, intro, 0, 4096));  // warm
    GlitchOnceHooks hooks(600);
    platform.memory().set_fault_hooks(&hooks);
    digests.push_back(scan_once(platform, intro, 0, 4096));  // glitched
    platform.memory().set_fault_hooks(nullptr);
    digests.push_back(scan_once(platform, intro, 0, 4096));  // clean again
    return digests;
  };
  std::vector<std::uint8_t> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31 + 5);
  }
  hw::Platform on_platform, off_platform;
  on_platform.memory().poke(0, data);
  off_platform.memory().poke(0, data);
  Introspector on(on_platform), off(off_platform);
  off.digest_cache().set_enabled(false);
  const auto d_on = run(on, on_platform);
  const auto d_off = run(off, off_platform);
  EXPECT_EQ(d_on, d_off);
  // The glitch flipped bit 0 of byte 600 in the *observed* view only; the
  // backing bytes never changed, so the third pass is clean again — the
  // cache must not have learned the glitched digest.
  std::vector<std::uint8_t> glitched = data;
  glitched[600] ^= 0x01;
  EXPECT_EQ(d_on[0], on.digest_reference(data));
  EXPECT_EQ(d_on[1], on.digest_reference(glitched));
  EXPECT_EQ(d_on[2], on.digest_reference(data));
  EXPECT_EQ(on.digest_cache().stats().bypasses, 1u);
}

TEST(AuthorizedStore, AuthorizeLookupMatch) {
  AuthorizedStore store;
  store.authorize("area/3", 0xABCD);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.lookup("area/3"), 0xABCDu);
  EXPECT_FALSE(store.lookup("area/4").has_value());
  EXPECT_TRUE(store.matches("area/3", 0xABCD));
  EXPECT_FALSE(store.matches("area/3", 0xABCE));
}

TEST(AuthorizedStore, MissingKeyFailsClosed) {
  AuthorizedStore store;
  EXPECT_FALSE(store.matches("area/0", 0));
}

TEST(AuthorizedStore, ReauthorizationRejected) {
  AuthorizedStore store;
  store.authorize("area/0", 1);
  EXPECT_THROW(store.authorize("area/0", 2), std::logic_error);
}

}  // namespace
}  // namespace satin::secure
