// InlineCallback: small-buffer storage for every capture that fits, a
// compile error for one that does not, move-only ownership semantics.
#include "sim/inline_callback.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <type_traits>
#include <utility>

namespace satin::sim {
namespace {

// A capture past kCapacity, an over-aligned one and one whose move may
// throw do not convert: the event path never stores a callback on the
// heap.
struct Big {
  std::array<char, InlineCallback::kCapacity + 1> bytes;
  void operator()() {}
};
struct alignas(2 * InlineCallback::kAlignment) OverAligned {
  void operator()() {}
};
struct ThrowingMove {
  ThrowingMove() = default;
  ThrowingMove(ThrowingMove&&) noexcept(false) {}
  void operator()() {}
};
static_assert(!std::is_constructible_v<InlineCallback, Big>);
static_assert(!std::is_constructible_v<InlineCallback, OverAligned>);
static_assert(!std::is_constructible_v<InlineCallback, ThrowingMove>);

TEST(InlineCallback, DefaultIsEmpty) {
  InlineCallback cb;
  EXPECT_FALSE(static_cast<bool>(cb));
}

TEST(InlineCallback, InvokesSmallCaptureInline) {
  int hits = 0;
  InlineCallback cb([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(cb));
  cb();
  cb();
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallback, CaptureAtCapacityStaysInline) {
  std::array<char, InlineCallback::kCapacity - sizeof(void*)> payload{};
  payload.front() = 7;
  payload.back() = 9;
  int sum = 0;
  const auto add = [payload, &sum] { sum = payload.front() + payload.back(); };
  static_assert(sizeof(add) == InlineCallback::kCapacity);
  InlineCallback cb(add);
  cb();
  EXPECT_EQ(sum, 16);
}

TEST(InlineCallback, MoveTransfersOwnership) {
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> alive = token;
  int got = 0;
  InlineCallback a([token, &got] { got = *token; });
  token.reset();
  EXPECT_FALSE(alive.expired());  // capture keeps it alive
  InlineCallback b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(got, 42);
  b.reset();
  EXPECT_TRUE(alive.expired());  // reset destroyed the capture
}

TEST(InlineCallback, MoveAssignReplacesExistingTarget) {
  auto old_token = std::make_shared<int>(1);
  std::weak_ptr<int> old_alive = old_token;
  InlineCallback cb([t = std::move(old_token)] { (void)t; });
  int hits = 0;
  cb = InlineCallback([&hits] { ++hits; });
  EXPECT_TRUE(old_alive.expired());  // previous capture destroyed
  cb();
  EXPECT_EQ(hits, 1);
}

}  // namespace
}  // namespace satin::sim
