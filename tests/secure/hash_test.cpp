#include "secure/hash.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/rng.h"

namespace satin::secure {
namespace {

std::vector<std::uint8_t> ascii(const char* s) {
  std::vector<std::uint8_t> out;
  for (const char* p = s; *p != '\0'; ++p) {
    out.push_back(static_cast<std::uint8_t>(*p));
  }
  return out;
}

TEST(Hash, Djb2KnownValues) {
  // djb2: h = 5381; h = h*33 + c.
  EXPECT_EQ(hash_djb2({}), 5381u);
  const auto a = ascii("a");
  EXPECT_EQ(hash_djb2(a), 5381u * 33 + 'a');
}

TEST(Hash, Fnv1aKnownValues) {
  EXPECT_EQ(hash_fnv1a({}), 14695981039346656037ull);
  // FNV-1a("a") — published test vector.
  const auto a = ascii("a");
  EXPECT_EQ(hash_fnv1a(a), 0xAF63DC4C8601EC8Cull);
}

TEST(Hash, SdbmEmptyIsZero) { EXPECT_EQ(hash_sdbm({}), 0u); }

TEST(Hash, SingleByteChangesDigest) {
  std::vector<std::uint8_t> data(4096, 0x41);
  const std::uint64_t d0 = hash_djb2(data);
  const std::uint64_t f0 = hash_fnv1a(data);
  const std::uint64_t s0 = hash_sdbm(data);
  data[2048] ^= 0x01;
  EXPECT_NE(hash_djb2(data), d0);
  EXPECT_NE(hash_fnv1a(data), f0);
  EXPECT_NE(hash_sdbm(data), s0);
}

TEST(Hash, OrderMatters) {
  const auto ab = ascii("ab");
  const auto ba = ascii("ba");
  EXPECT_NE(hash_djb2(ab), hash_djb2(ba));
}

TEST(Hash, DispatcherMatchesDirectCalls) {
  const auto data = ascii("satin");
  EXPECT_EQ(hash_bytes(HashKind::kDjb2, data), hash_djb2(data));
  EXPECT_EQ(hash_bytes(HashKind::kSdbm, data), hash_sdbm(data));
  EXPECT_EQ(hash_bytes(HashKind::kFnv1a, data), hash_fnv1a(data));
}

// The word-at-a-time fast paths must be digest-identical to the textbook
// byte loops — randomized lengths cover every remainder mod 8, plus the
// unaligned-tail and all-0x00/0xFF edge cases.
TEST(Hash, FastPathsMatchReferencesOnRandomInputs) {
  sim::Rng rng(0xD1FF);
  for (int round = 0; round < 200; ++round) {
    const auto size = static_cast<std::size_t>(rng.uniform_int(0, 1000));
    std::vector<std::uint8_t> data(size);
    for (auto& b : data) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    ASSERT_EQ(hash_djb2(data), hash_djb2_reference(data)) << "size=" << size;
    ASSERT_EQ(hash_sdbm(data), hash_sdbm_reference(data)) << "size=" << size;
    ASSERT_EQ(hash_fnv1a(data), hash_fnv1a_reference(data))
        << "size=" << size;
  }
}

TEST(Hash, FastPathsMatchReferencesOnEdgeLengths) {
  for (std::size_t size : {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 63u, 64u}) {
    std::vector<std::uint8_t> zeros(size, 0x00);
    std::vector<std::uint8_t> ones(size, 0xFF);
    EXPECT_EQ(hash_djb2(zeros), hash_djb2_reference(zeros)) << size;
    EXPECT_EQ(hash_djb2(ones), hash_djb2_reference(ones)) << size;
    EXPECT_EQ(hash_sdbm(zeros), hash_sdbm_reference(zeros)) << size;
    EXPECT_EQ(hash_sdbm(ones), hash_sdbm_reference(ones)) << size;
    EXPECT_EQ(hash_fnv1a(zeros), hash_fnv1a_reference(zeros)) << size;
    EXPECT_EQ(hash_fnv1a(ones), hash_fnv1a_reference(ones)) << size;
  }
}

TEST(Hash, KindNames) {
  EXPECT_STREQ(to_string(HashKind::kDjb2), "djb2");
  EXPECT_STREQ(to_string(HashKind::kSdbm), "sdbm");
  EXPECT_STREQ(to_string(HashKind::kFnv1a), "fnv1a");
}

}  // namespace
}  // namespace satin::secure
