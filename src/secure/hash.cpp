#include "secure/hash.h"

namespace satin::secure {

const char* to_string(HashKind kind) {
  switch (kind) {
    case HashKind::kDjb2:
      return "djb2";
    case HashKind::kSdbm:
      return "sdbm";
    case HashKind::kFnv1a:
      return "fnv1a";
  }
  return "?";
}

std::uint64_t hash_djb2_reference(std::span<const std::uint8_t> data) {
  // Bernstein's djb2 ("hash * 33 + c"), the function cited by the paper.
  std::uint64_t hash = 5381;
  for (std::uint8_t c : data) hash = ((hash << 5) + hash) + c;
  return hash;
}

std::uint64_t hash_sdbm_reference(std::span<const std::uint8_t> data) {
  std::uint64_t hash = 0;
  for (std::uint8_t c : data) hash = c + (hash << 6) + (hash << 16) - hash;
  return hash;
}

std::uint64_t hash_fnv1a_reference(std::span<const std::uint8_t> data) {
  std::uint64_t hash = 14695981039346656037ull;
  for (std::uint8_t c : data) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

namespace {

// Powers m^1..m^8 (mod 2^64) at compile time, for the word-at-a-time
// multiply-accumulate fast paths below.
struct PowTable {
  std::uint64_t p[9];
};

constexpr PowTable make_pow_table(std::uint64_t m) {
  PowTable t{};
  t.p[0] = 1;
  for (int i = 1; i <= 8; ++i) t.p[i] = t.p[i - 1] * m;
  return t;
}

constexpr PowTable kPow33 = make_pow_table(33);
constexpr PowTable kPow65599 = make_pow_table(65599);

// Both djb2 and sdbm are the polynomial hash h' = h*m + c per byte
// (djb2: m = 33; sdbm: c + (h<<6) + (h<<16) - h = h*65599 + c). Eight
// steps therefore collapse into one multiply-accumulate over a word:
//   h' = h*m^8 + c0*m^7 + c1*m^6 + ... + c7
// — identical bits to the byte loop, one iteration per 8 bytes.
template <const PowTable& kPow>
std::uint64_t hash_poly(std::uint64_t hash,
                        std::span<const std::uint8_t> data) {
  const std::uint8_t* d = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    hash = hash * kPow.p[8] + d[0] * kPow.p[7] + d[1] * kPow.p[6] +
           d[2] * kPow.p[5] + d[3] * kPow.p[4] + d[4] * kPow.p[3] +
           d[5] * kPow.p[2] + d[6] * kPow.p[1] + d[7];
    d += 8;
    n -= 8;
  }
  for (std::size_t i = 0; i < n; ++i) hash = hash * kPow.p[1] + d[i];
  return hash;
}

}  // namespace

std::uint64_t hash_djb2(std::span<const std::uint8_t> data) {
  return hash_poly<kPow33>(5381, data);
}

std::uint64_t hash_sdbm(std::span<const std::uint8_t> data) {
  return hash_poly<kPow65599>(0, data);
}

std::uint64_t hash_fnv1a(std::span<const std::uint8_t> data) {
  // FNV-1a interleaves xor and multiply, so the steps don't collapse into
  // one polynomial; an 8-wide unroll still removes the loop overhead and
  // keeps one word of input in flight per iteration.
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t hash = 14695981039346656037ull;
  const std::uint8_t* d = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    hash = (hash ^ d[0]) * kPrime;
    hash = (hash ^ d[1]) * kPrime;
    hash = (hash ^ d[2]) * kPrime;
    hash = (hash ^ d[3]) * kPrime;
    hash = (hash ^ d[4]) * kPrime;
    hash = (hash ^ d[5]) * kPrime;
    hash = (hash ^ d[6]) * kPrime;
    hash = (hash ^ d[7]) * kPrime;
    d += 8;
    n -= 8;
  }
  for (std::size_t i = 0; i < n; ++i) hash = (hash ^ d[i]) * kPrime;
  return hash;
}

std::uint64_t hash_bytes(HashKind kind, std::span<const std::uint8_t> data) {
  switch (kind) {
    case HashKind::kDjb2:
      return hash_djb2(data);
    case HashKind::kSdbm:
      return hash_sdbm(data);
    case HashKind::kFnv1a:
      return hash_fnv1a(data);
  }
  return 0;
}

}  // namespace satin::secure
