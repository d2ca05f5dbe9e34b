// Small-buffer type-erased callback for the event engine.
//
// std::function<void()> heap-allocates whenever the capture outgrows its
// (implementation-defined, ~16-byte) internal buffer — which is every
// scheduling call site in this tree that captures more than two pointers.
// InlineCallback fixes the buffer at kCapacity bytes, sized to the largest
// capture in the repo (secure::Introspector's scan-completion lambda:
// this + core + token + offset/length + start + per-byte cost + a
// std::function done-callback, ~88 bytes), so every event the simulator
// schedules stores its callback inline in the slab-pooled event state and
// the steady-state event path performs zero heap allocations.
//
// A callable larger than kCapacity, over-aligned or with a throwing move
// does not convert to an InlineCallback: the fit is a constraint of the
// constructor, so a capture that outgrows the buffer is a compile error
// instead of allocator traffic on the event path.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace satin::sim {

class InlineCallback {
 public:
  // Inline storage: fits every capture in the tree today (largest ~88 B,
  // see header comment).
  static constexpr std::size_t kCapacity = 128;
  static constexpr std::size_t kAlignment = alignof(std::max_align_t);

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kCapacity && alignof(D) <= kAlignment &&
           std::is_nothrow_move_constructible_v<D>;
  }

  InlineCallback() noexcept = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineCallback> &&
                                        std::is_invocable_r_v<void, D&> &&
                                        fits_inline<D>()>>
  InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    ops_ = &inline_ops<D>;
  }

  InlineCallback(InlineCallback&& other) noexcept { steal(other); }
  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-constructs dst storage from src storage, leaving src destroyed.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename D>
  static constexpr Ops inline_ops = {
      [](void* s) { (*std::launder(reinterpret_cast<D*>(s)))(); },
      [](void* dst, void* src) noexcept {
        D* from = std::launder(reinterpret_cast<D*>(src));
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      [](void* s) noexcept { std::launder(reinterpret_cast<D*>(s))->~D(); },
  };

  void steal(InlineCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(kAlignment) unsigned char storage_[kCapacity];
  const Ops* ops_ = nullptr;
};

}  // namespace satin::sim
