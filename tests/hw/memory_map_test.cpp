// Copy-on-write image install: Memory::install_image maps whole pages of a
// file MAP_PRIVATE instead of copying them. Every observable — bytes,
// written-since-baseline marks, scans, races, fault glitches — must match
// the copying install (poke(0, image)), and no install may leak a mapping.
#include "hw/memory.h"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace satin::hw {
namespace {

const std::size_t kPage = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));

// Deterministic non-zero filler, so mapped and copied bytes are told apart
// from the zero pages a failed mapping would leave.
std::vector<std::uint8_t> make_image(std::size_t size) {
  std::vector<std::uint8_t> image(size);
  std::uint32_t x = 0x12345678u;
  for (auto& b : image) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>((x >> 24) | 1u);
  }
  return image;
}

// A memfd holding `image`, closed on scope exit.
class ImageFile {
 public:
  explicit ImageFile(const std::vector<std::uint8_t>& image)
      : fd_(::memfd_create("memory-map-test", MFD_CLOEXEC)) {
    EXPECT_GE(fd_, 0);
    EXPECT_EQ(::write(fd_, image.data(), image.size()),
              static_cast<ssize_t>(image.size()));
  }
  ~ImageFile() { ::close(fd_); }
  int fd() const { return fd_; }
  std::vector<std::uint8_t> contents(std::size_t size) const {
    std::vector<std::uint8_t> out(size);
    EXPECT_EQ(::pread(fd_, out.data(), size, 0), static_cast<ssize_t>(size));
    return out;
  }

 private:
  int fd_;
};

std::vector<std::uint8_t> snapshot(const Memory& mem) {
  return {mem.bytes().begin(), mem.bytes().end()};
}

// Which chunks are still untouched since the baseline.
std::vector<bool> untouched_chunks(const Memory& mem) {
  std::vector<bool> out;
  for (std::size_t off = 0; off < mem.size(); off += Memory::kChunkBytes) {
    out.push_back(mem.untouched_since_baseline(
        off, std::min(Memory::kChunkBytes, mem.size() - off)));
  }
  return out;
}

void expect_same_state(const Memory& mapped, const Memory& copied) {
  ASSERT_EQ(mapped.size(), copied.size());
  EXPECT_EQ(snapshot(mapped), snapshot(copied));
  EXPECT_EQ(untouched_chunks(mapped), untouched_chunks(copied));
}

// Lines of /proc/self/maps that map the test's memfd. A sanitizer's own
// allocator maps regions of its own as the test runs, so counting every
// line would not be stable.
std::size_t count_file_mappings() {
  std::ifstream maps("/proc/self/maps");
  std::size_t lines = 0;
  for (std::string line; std::getline(maps, line);) {
    lines += line.find("memfd:memory-map-test") != std::string::npos;
  }
  return lines;
}

// True when no page of [base, base + bytes) is mapped any more.
bool fully_unmapped(const std::uint8_t* base, std::size_t bytes) {
  unsigned char resident = 0;
  for (std::size_t off = 0; off < bytes; off += kPage) {
    void* page = const_cast<std::uint8_t*>(base + off);
    if (::mincore(page, kPage, &resident) == 0 || errno != ENOMEM) {
      return false;
    }
  }
  return true;
}

TEST(MemoryMap, MappedInstallMatchesTheCopyingInstall) {
  // Neither size is a page multiple: the image ends mid-page (its tail is
  // copied) and the memory ends mid-page too.
  const auto image = make_image(5 * kPage + 300);
  ImageFile file(image);
  const std::size_t size = 9 * kPage + 77;

  Memory mapped(size);
  Memory copied(size);
  EXPECT_TRUE(mapped.install_image(image, file.fd()));
  copied.poke(0, image);
  expect_same_state(mapped, copied);
  EXPECT_TRUE(std::equal(image.begin(), image.end(), mapped.bytes().begin()));
  // Past the image the memory still reads as zero.
  for (std::size_t i = image.size(); i < size; ++i) {
    ASSERT_EQ(mapped.read(i), 0) << i;
  }
  // After a baseline and a poke of the memory's last byte, the marks
  // agree too.
  const std::vector<std::uint8_t> mark = {0x5A};
  for (Memory* mem : {&mapped, &copied}) {
    mem->stamp_baseline();
    mem->poke(size - 1, mark);
  }
  expect_same_state(mapped, copied);
  EXPECT_FALSE(mapped.untouched_since_baseline(size - 1, 1));
  EXPECT_TRUE(mapped.untouched_since_baseline(0, image.size()));
}

TEST(MemoryMap, TwoMemoriesFromOneFileAreIsolated) {
  const auto image = make_image(4 * kPage);
  ImageFile file(image);
  Memory a(6 * kPage);
  Memory b(6 * kPage);
  ASSERT_TRUE(a.install_image(image, file.fd()));
  ASSERT_TRUE(b.install_image(image, file.fd()));

  const std::vector<std::uint8_t> junk(100, 0xEE);
  a.write(sim::Time::zero(), kPage + 10, junk);
  a.poke(3 * kPage - 50, junk);  // straddles a page boundary
  EXPECT_EQ(a.read(kPage + 10), 0xEE);
  EXPECT_EQ(a.read(3 * kPage), 0xEE);
  // The other memory and the file still hold the image.
  EXPECT_TRUE(std::equal(image.begin(), image.end(), b.bytes().begin()));
  EXPECT_EQ(file.contents(image.size()), image);
  // And a memory installed after the write still sees the pristine image.
  Memory c(6 * kPage);
  ASSERT_TRUE(c.install_image(image, file.fd()));
  EXPECT_TRUE(std::equal(image.begin(), image.end(), c.bytes().begin()));
}

TEST(MemoryMap, ScansOverMappedPagesBehaveAsOverCopiedOnes) {
  const auto image = make_image(3 * kPage + 5);
  ImageFile file(image);
  Memory mapped(4 * kPage);
  Memory copied(4 * kPage);
  ASSERT_TRUE(mapped.install_image(image, file.fd()));
  copied.poke(0, image);

  // Zero-copy: an unraced scan reads the mapped pages in place.
  for (Memory* mem : {&mapped, &copied}) {
    auto token = mem->begin_scan(sim::Time::zero(), 100, 2 * kPage, 1000.0);
    const auto view = mem->finish_scan(token);
    EXPECT_FALSE(view.owned());
    EXPECT_TRUE(std::equal(view.begin(), view.end(), image.begin() + 100));
  }

  // Copy-on-first-overlap with a timed write racing the cursor: the
  // first byte lands ahead of the cursor, the second behind it.
  std::vector<std::vector<std::uint8_t>> views;
  for (Memory* mem : {&mapped, &copied}) {
    auto token = mem->begin_scan(sim::Time::zero(), 0, 2 * kPage, 1000.0);
    const std::vector<std::uint8_t> two = {0xAB, 0xCD};
    // Byte 1000 is touched at 1,000,000 ps; byte 999 at 999,000 ps.
    mem->write(sim::Time::from_ps(999'500), 999, two);
    const auto view = mem->finish_scan(token);
    EXPECT_TRUE(view.owned());
    EXPECT_EQ(view[999], image[999]);
    EXPECT_EQ(view[1000], 0xCD);
    EXPECT_EQ(mem->read(999), 0xAB);
    views.push_back(view.to_vector());
  }
  EXPECT_EQ(views[0], views[1]);
  expect_same_state(mapped, copied);
}

class FlipByte final : public FaultHooks {
 public:
  explicit FlipByte(std::size_t pos) : pos_(pos) {}
  TimerFaultDecision on_program_secure(CoreId, sim::Time) override {
    return {};
  }
  bool drop_secure_irq(CoreId, IrqId) override { return false; }
  bool fail_secure_entry(CoreId) override { return false; }
  std::vector<BitFlip> scan_flips(sim::Time, std::size_t length) override {
    if (pos_ >= length) return {};
    return {{pos_, 0x01}};
  }

 private:
  std::size_t pos_;
};

TEST(MemoryMap, FaultHookGlitchOverMappedPagesLeavesThemIntact) {
  const auto image = make_image(2 * kPage);
  ImageFile file(image);
  Memory mapped(2 * kPage);
  Memory copied(2 * kPage);
  ASSERT_TRUE(mapped.install_image(image, file.fd()));
  copied.poke(0, image);
  FlipByte hooks(kPage + 3);
  for (Memory* mem : {&mapped, &copied}) {
    mem->stamp_baseline();
    mem->set_fault_hooks(&hooks);
    auto token = mem->begin_scan(sim::Time::zero(), 0, 2 * kPage, 1000.0);
    const auto view = mem->finish_scan(token);
    EXPECT_TRUE(view.owned());
    EXPECT_EQ(view[kPage + 3], image[kPage + 3] ^ 0x01);
    EXPECT_EQ(mem->read(kPage + 3), image[kPage + 3]);
    // The glitch marks nothing: the bytes are still the installed ones.
    EXPECT_TRUE(mem->untouched_since_baseline(0, mem->size()));
    mem->set_fault_hooks(nullptr);
  }
  expect_same_state(mapped, copied);
}

TEST(MemoryMap, InstallCopiesWhenMemoryWasMutatedOrIsBeingScanned) {
  const auto image = make_image(3 * kPage);
  ImageFile file(image);
  {
    Memory mutated(4 * kPage);
    Memory reference(4 * kPage);
    const std::vector<std::uint8_t> mark = {7};
    mutated.poke(4 * kPage - 1, mark);
    reference.poke(4 * kPage - 1, mark);
    EXPECT_FALSE(mutated.install_image(image, file.fd()));
    reference.poke(0, image);
    expect_same_state(mutated, reference);
  }
  {
    Memory scanned(4 * kPage);
    Memory reference(4 * kPage);
    auto token = scanned.begin_scan(sim::Time::zero(), 0, kPage, 1000.0);
    auto ref_token = reference.begin_scan(sim::Time::zero(), 0, kPage, 1000.0);
    EXPECT_FALSE(scanned.install_image(image, file.fd()));
    reference.poke(0, image);
    // The in-flight scan keeps the zeros it was anchored on.
    const auto view = scanned.finish_scan(token);
    const auto ref_view = reference.finish_scan(ref_token);
    EXPECT_EQ(view.to_vector(), ref_view.to_vector());
    EXPECT_EQ(view[0], 0);
    expect_same_state(scanned, reference);
  }
  {
    // No file, or an image shorter than a page: nothing to map.
    Memory no_file(4 * kPage);
    EXPECT_FALSE(no_file.install_image(image, -1));
    EXPECT_TRUE(std::equal(image.begin(), image.end(),
                           no_file.bytes().begin()));
    const auto tiny = make_image(kPage - 1);
    ImageFile tiny_file(tiny);
    Memory small(kPage);
    EXPECT_FALSE(small.install_image(tiny, tiny_file.fd()));
    EXPECT_TRUE(std::equal(tiny.begin(), tiny.end(), small.bytes().begin()));
  }
  Memory too_small(kPage);
  EXPECT_THROW(too_small.install_image(image, file.fd()), std::out_of_range);
}

// Every byte a Memory maps — its pages, the pages mapped from the image
// file, the guard page after them — is unmapped when it is destroyed.
TEST(MemoryMap, ConstructionAndDestructionLeaveNoMappingBehind) {
  const auto image = make_image(8 * kPage + 1);
  ImageFile file(image);
  const std::size_t size = 16 * kPage + 3;
  const std::size_t reserved = 17 * kPage + kPage;  // whole pages + guard
  EXPECT_EQ(count_file_mappings(), 0u);
  for (int i = 0; i < 100; ++i) {
    const std::uint8_t* mapped_base = nullptr;
    const std::uint8_t* plain_base = nullptr;
    {
      Memory mapped(size);
      ASSERT_TRUE(mapped.install_image(image, file.fd()));
      ASSERT_EQ(count_file_mappings(), 1u);
      Memory plain(size);
      plain.poke(size - 10, std::vector<std::uint8_t>(10, 1));
      mapped_base = mapped.bytes().data();
      plain_base = plain.bytes().data();
    }
    ASSERT_TRUE(fully_unmapped(mapped_base, reserved)) << "cycle " << i;
    ASSERT_TRUE(fully_unmapped(plain_base, reserved)) << "cycle " << i;
  }
  EXPECT_EQ(count_file_mappings(), 0u);
}

}  // namespace
}  // namespace satin::hw
