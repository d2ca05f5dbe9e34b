// Per-shard shared-state registry for the fused lockstep pass.
//
// A lockstep shard advances K trials through one fused event loop on one
// worker thread. Some per-trial state is *identical* across every trial in
// the shard — the freshly constructed os::KernelImage (8.7% of the batched
// bench profile rebuilt K times), the pristine-image digest chains the
// secure world hashes on every clean round. A ShardContext is a small
// type-erased key→value map installed thread-locally for the duration of
// one shard's run; construction sites ask `current()` for a shared replica
// before building their own.
//
// Identity discipline: the context is installed ONLY by the fused shard
// path (`--fused=on`, the default). The unsharded `--batch=1` run and
// `--fused=off` never see one, so every shared object must be
// observationally equivalent to the per-trial object it replaces — same
// bytes, same digests, same counter increments. Tests in
// tests/sim/batch_test.cpp and tests/os/kernel_image_test.cpp gate this.
//
// Thread model: one shard = one worker thread; the context is
// thread_local and never shared across threads, so no locking. Entries
// may hold shared_ptrs into other entries (aliasing), which is why values
// are type-erased shared_ptrs with the deleter captured at insert. The
// erased type is `const void` so const-qualified pointees (the common
// case — shared entries must be immutable) convert without a cast.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

namespace satin::sim {

class ShardContext {
 public:
  // The context installed on this thread, or nullptr outside a fused
  // shard run.
  static ShardContext* current();

  // Fetches the entry under `key`, constructing it via `make` on first
  // use. The stored pointer is shared: every trial in the shard gets the
  // same object. T must be immutable (or externally synchronized — but
  // see the thread model above: prefer immutable).
  template <typename T, typename Make>
  std::shared_ptr<T> get_or_create(const std::string& key, Make&& make) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      std::shared_ptr<T> value = make();
      it = entries_.emplace(key, std::shared_ptr<const void>(value)).first;
      return value;
    }
    return recover<T>(it->second);
  }

  // Fetches the entry under `key` if present, else nullptr (no construction).
  template <typename T>
  std::shared_ptr<T> get(const std::string& key) const {
    auto it = entries_.find(key);
    if (it == entries_.end()) return nullptr;
    return recover<T>(it->second);
  }

  std::size_t size() const { return entries_.size(); }

  // RAII installer: the fused shard loop holds one of these for the
  // duration of a shard; nesting restores the previous context on exit.
  class Scope {
   public:
    explicit Scope(ShardContext& context);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ShardContext* previous_;
  };

 private:
  // Undoes the type erasure. The const_pointer_cast only strips the
  // erasure-added const — an entry inserted as shared_ptr<T> comes back
  // as the same T, const qualifier and all, because T here is whatever
  // the caller spelled at insert time (callers use one type per key).
  template <typename T>
  static std::shared_ptr<T> recover(const std::shared_ptr<const void>& erased) {
    return std::static_pointer_cast<T>(std::const_pointer_cast<void>(erased));
  }

  std::unordered_map<std::string, std::shared_ptr<const void>> entries_;
};

}  // namespace satin::sim
