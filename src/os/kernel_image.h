// The rich OS kernel image: bytes + layout.
//
// Produces the deterministic byte content of the kernel static area that
// the introspection hashes and the rootkit corrupts. Content is synthetic
// (seeded PRNG "code") but structurally faithful: a real syscall dispatch
// table whose entries hold handler addresses inside .text, and an AArch64
// exception vector table at `vectors` whose IRQ slot KProber-I rewrites.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "hw/memory.h"
#include "os/system_map.h"

namespace satin::os {

class KernelImage {
 public:
  explicit KernelImage(SystemMap map,
                       std::uint64_t content_seed = 0x4C534B2D34'34ull);

  const SystemMap& map() const { return map_; }
  std::size_t size() const { return bytes_.size(); }

  // Pristine (benign) image bytes; authorized hashes are computed on this.
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

  // Installs the image into physical memory at offset 0 (trusted boot).
  // The default image maps its whole pages copy-on-write when the memory
  // allows it (hw::Memory::install_image); any other image, or a memory
  // that was already mutated or is being scanned, gets a copy. Either way
  // the memory ends in the state poke(0, bytes()) leaves.
  void install(hw::Memory& memory) const;

  // Image bytes install() has copied in this process, over every image,
  // because it could not map them (diagnostic: a steady-state boot of the
  // default image adds 0).
  static std::uint64_t copied_install_bytes();

  // Offset of syscall table entry `nr` within the image.
  std::size_t syscall_entry_offset(int nr) const;
  // The benign 8-byte handler pointer stored at that entry.
  std::array<std::uint8_t, 8> benign_syscall_entry(int nr) const;

  // Offset of the 8-byte IRQ slot of the exception vector table (the word
  // KProber-I redirects; AArch64 "IRQ, current EL with SPx" is vector
  // offset 0x280).
  std::size_t irq_vector_offset() const;
  std::array<std::uint8_t, 8> benign_irq_vector() const;

 private:
  friend const std::shared_ptr<const KernelImage>& default_kernel_image();

  // Puts the bytes in a memfd that install() maps pages from. Leaves the
  // image copy-installed when memfd is unavailable.
  void share_pages();

  std::array<std::uint8_t, 8> read8(std::size_t offset) const;

  class PageFile;

  SystemMap map_;
  std::vector<std::uint8_t> bytes_;
  std::shared_ptr<const PageFile> pages_;
  std::size_t syscall_table_offset_ = 0;
  std::size_t vectors_offset_ = 0;
};

// The process-wide default image, a pure function of make_default_map()
// and the default fill seed: built on first use, immutable, and shared by
// every Scenario on every thread (DESIGN.md §20). A process forked after
// the first use inherits it; one forked before builds its own.
const std::shared_ptr<const KernelImage>& default_kernel_image();

}  // namespace satin::os
