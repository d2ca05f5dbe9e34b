#include "os/kernel_image.h"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace satin::os {

// Owns the memfd holding an image's bytes; closed when the last image
// copy sharing it goes.
class KernelImage::PageFile {
 public:
  explicit PageFile(int fd) : fd_(fd) {}
  ~PageFile() { ::close(fd_); }
  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;
  int fd() const { return fd_; }

 private:
  int fd_;
};

namespace {
std::atomic<std::uint64_t> g_copied_install_bytes{0};

// splitmix64: fast, deterministic filler for the synthetic "machine code".
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr std::uint64_t kTextVaBase = 0xFFFFFF8008080000ull;
constexpr std::size_t kIrqVectorSlot = 0x280;
}  // namespace

KernelImage::KernelImage(SystemMap map, std::uint64_t content_seed)
    : map_(std::move(map)), bytes_(map_.total_size()) {
  std::uint64_t state = content_seed;
  for (std::size_t i = 0; i + 8 <= bytes_.size(); i += 8) {
    // Each word is stored little-endian, whatever the host order.
    std::uint64_t word = splitmix64(state);
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    std::memcpy(bytes_.data() + i, &word, sizeof word);
  }
  for (std::size_t i = bytes_.size() & ~std::size_t{7}; i < bytes_.size();
       ++i) {
    bytes_[i] = static_cast<std::uint8_t>(splitmix64(state));
  }

  const auto table = map_.find_symbol("sys_call_table");
  if (!table) throw std::invalid_argument("KernelImage: no sys_call_table");
  syscall_table_offset_ = table->offset;
  const auto vectors = map_.find_symbol("vectors");
  if (!vectors) throw std::invalid_argument("KernelImage: no vectors");
  vectors_offset_ = vectors->offset;

  // Give each syscall entry a plausible handler VA inside .text so the
  // table holds structured data, the way a real image does. Deterministic
  // in the syscall number (independent of the filler seed), so tests can
  // predict entries.
  const auto etext = map_.find_symbol("_etext");
  const std::size_t text_size = etext ? etext->offset : bytes_.size() / 2;
  for (int nr = 0; nr < kSyscallTableEntries; ++nr) {
    std::uint64_t h = 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(nr + 1);
    h ^= h >> 29;
    const std::uint64_t handler =
        kTextVaBase + (h % static_cast<std::uint64_t>(text_size)) / 4 * 4;
    const std::size_t off = syscall_entry_offset(nr);
    for (int b = 0; b < 8; ++b) {
      bytes_[off + static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(handler >> (8 * b));
    }
  }
}

void KernelImage::install(hw::Memory& memory) const {
  if (memory.size() < bytes_.size()) {
    throw std::invalid_argument("KernelImage::install: memory too small");
  }
  if (!memory.install_image(bytes_, pages_ != nullptr ? pages_->fd() : -1)) {
    g_copied_install_bytes += bytes_.size();
  }
}

std::uint64_t KernelImage::copied_install_bytes() {
  return g_copied_install_bytes;
}

void KernelImage::share_pages() {
  const int fd = ::memfd_create("satin-kernel-image", MFD_CLOEXEC);
  if (fd < 0) return;
  auto file = std::make_shared<const PageFile>(fd);
  std::size_t done = 0;
  while (done < bytes_.size()) {
    const ssize_t n = ::write(fd, bytes_.data() + done, bytes_.size() - done);
    if (n <= 0) return;
    done += static_cast<std::size_t>(n);
  }
  pages_ = std::move(file);
}

const std::shared_ptr<const KernelImage>& default_kernel_image() {
  static const std::shared_ptr<const KernelImage> image = [] {
    auto built = std::make_shared<KernelImage>(make_default_map());
    built->share_pages();
    return std::shared_ptr<const KernelImage>(std::move(built));
  }();
  return image;
}

std::size_t KernelImage::syscall_entry_offset(int nr) const {
  if (nr < 0 || nr >= kSyscallTableEntries) {
    throw std::out_of_range("syscall_entry_offset: bad syscall number");
  }
  return syscall_table_offset_ +
         static_cast<std::size_t>(nr) * kSyscallEntryBytes;
}

std::array<std::uint8_t, 8> KernelImage::read8(std::size_t offset) const {
  std::array<std::uint8_t, 8> out{};
  for (int b = 0; b < 8; ++b) {
    out[static_cast<std::size_t>(b)] = bytes_.at(offset + static_cast<std::size_t>(b));
  }
  return out;
}

std::array<std::uint8_t, 8> KernelImage::benign_syscall_entry(int nr) const {
  return read8(syscall_entry_offset(nr));
}

std::size_t KernelImage::irq_vector_offset() const {
  return vectors_offset_ + kIrqVectorSlot;
}

std::array<std::uint8_t, 8> KernelImage::benign_irq_vector() const {
  return read8(irq_vector_offset());
}

}  // namespace satin::os
