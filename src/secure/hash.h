// Hash functions used by the secure-world introspection.
//
// §IV-B1: the prototype hashes kernel memory with djb2 and compares the
// digest against a pre-calculated authorized value. We provide djb2 plus
// two alternatives (sdbm from the same classic collection, and FNV-1a) so
// the integrity checker's hash choice is pluggable and benchmarkable.
#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace satin::secure {

enum class HashKind { kDjb2, kSdbm, kFnv1a };

const char* to_string(HashKind kind);

// Word-at-a-time fast paths (djb2/sdbm collapse 8 byte-steps into one
// multiply-accumulate; FNV-1a unrolls 8-wide). Digest-identical to the
// byte-at-a-time references below — a randomized differential test in
// tests/secure/hash_test.cpp holds them to that.
std::uint64_t hash_djb2(std::span<const std::uint8_t> data);
std::uint64_t hash_sdbm(std::span<const std::uint8_t> data);
std::uint64_t hash_fnv1a(std::span<const std::uint8_t> data);

// Byte-at-a-time reference implementations (the literal textbook loops).
std::uint64_t hash_djb2_reference(std::span<const std::uint8_t> data);
std::uint64_t hash_sdbm_reference(std::span<const std::uint8_t> data);
std::uint64_t hash_fnv1a_reference(std::span<const std::uint8_t> data);

std::uint64_t hash_bytes(HashKind kind, std::span<const std::uint8_t> data);

}  // namespace satin::secure
