#include "secure/pristine_base.h"

#include <algorithm>

namespace satin::secure {

const PristineBase::AreaChain* PristineBase::area_chain(
    HashKind kind, std::size_t offset, std::size_t length,
    std::size_t chunk_bytes) {
  if (chunk_bytes == 0 || length == 0) return nullptr;
  if (offset > bytes_.size() || length > bytes_.size() - offset) {
    return nullptr;
  }
  const Key key{static_cast<int>(kind), offset, length, chunk_bytes};
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = chains_.find(key);
    if (it != chains_.end()) return &it->second;
  }

  // Same walk as DigestCache::round_digest's miss path, over the pristine
  // bytes: resume-chained per-chunk states starting from the hash seed.
  // Built outside the lock; a thread that loses the race to publish the
  // same key takes the winner's (identical) chain.
  AreaChain chain;
  const std::size_t chunk_count = (length + chunk_bytes - 1) / chunk_bytes;
  chain.state_in.reserve(chunk_count);
  chain.state_out.reserve(chunk_count);
  std::uint64_t state = hash_seed(kind);
  for (std::size_t k = 0; k < chunk_count; ++k) {
    const std::size_t begin = k * chunk_bytes;
    const std::size_t len = std::min(chunk_bytes, length - begin);
    chain.state_in.push_back(state);
    state = hash_resume(kind, state, bytes_.subspan(offset + begin, len));
    chain.state_out.push_back(state);
  }
  chain.digest = state;
  const std::lock_guard<std::mutex> lock(mutex_);
  return &chains_.emplace(key, std::move(chain)).first->second;
}

std::uint64_t PristineBase::chains_built() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return chains_.size();
}

}  // namespace satin::secure
