// Per-trial seed derivation for replicated Monte-Carlo runs.
//
// A TrialRunner fans N independent trials out over J workers; each trial
// must get a seed that depends only on (root seed, trial index) so the
// fan-out is bit-identical for any J, including J=1. The derivation
// follows the same discipline as Rng::fork — FNV-1a over a substream name
// ("trial/<index>") mixed with a draw from the root-seeded engine — so a
// trial's substream is decorrelated from the root stream and from every
// other trial, and adding trials never perturbs existing ones.
#pragma once

#include <cstdint>
#include <cstdio>

#include "sim/fnv1a.h"
#include "sim/rng.h"

namespace satin::sim {

class TrialSeedSeq {
 public:
  explicit TrialSeedSeq(std::uint64_t root_seed)
      : mix_(Rng(root_seed).next_u64()) {}

  // Stateless per-index derivation: depends only on (root, trial), never
  // on how many seeds were derived before or on which thread asks.
  std::uint64_t seed_for(std::uint64_t trial) const {
    char name[32];
    const int len = std::snprintf(name, sizeof(name), "trial/%llu",
                                  static_cast<unsigned long long>(trial));
    return fnv1a(name, static_cast<std::size_t>(len)) ^ mix_;
  }

 private:
  std::uint64_t mix_;  // one fork-style draw from the root engine
};

}  // namespace satin::sim
