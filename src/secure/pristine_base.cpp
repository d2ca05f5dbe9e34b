#include "secure/pristine_base.h"

namespace satin::secure {

std::optional<std::uint64_t> PristineBase::area_digest(HashKind kind,
                                                       std::size_t offset,
                                                       std::size_t length) {
  if (offset > bytes_.size() || length > bytes_.size() - offset) {
    return std::nullopt;
  }
  const Key key{kind, offset, length};
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = digests_.find(key);
    if (it != digests_.end()) return it->second;
  }
  // Hashed outside the lock; a thread that loses the race to publish the
  // same key keeps the winner's (identical) digest.
  const std::uint64_t digest = hash_bytes(kind, bytes_.subspan(offset, length));
  const std::lock_guard<std::mutex> lock(mutex_);
  return digests_.emplace(key, digest).first->second;
}

std::uint64_t PristineBase::digests_built() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return digests_.size();
}

}  // namespace satin::secure
