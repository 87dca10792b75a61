#include "apps/kv_store.h"

namespace apps {

namespace {
constexpr std::uint64_t kPerItemOverhead = 56;  // header + pointers
}

KvStore::KvStore(std::uint64_t memory_limit_bytes)
    : memory_limit_(memory_limit_bytes) {}

std::uint64_t KvStore::item_cost(const std::string& key,
                                 const std::string& value) {
  return key.size() + value.size() + kPerItemOverhead;
}

void KvStore::evict_until_fits(std::uint64_t needed) {
  while (bytes_used_ + needed > memory_limit_ && !lru_.empty()) {
    const Item& victim = lru_.back();
    bytes_used_ -= item_cost(victim.key, victim.value);
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

bool KvStore::set(const std::string& key, std::string value) {
  ++stats_.sets;
  const std::uint64_t needed = item_cost(key, value);
  if (needed > memory_limit_) {
    return false;
  }
  // One lookup. An overwrite keeps its index entry and drops only the old
  // LRU node, so the eviction below cannot reach `key`.
  const auto [it, inserted] = index_.try_emplace(key);
  if (!inserted) {
    bytes_used_ -= item_cost(key, it->second->value);
    lru_.erase(it->second);
  }
  evict_until_fits(needed);
  lru_.push_front(Item{key, std::move(value)});
  it->second = lru_.begin();
  bytes_used_ += needed;
  stats_.bytes_stored = bytes_used_;
  return true;
}

std::optional<std::string> KvStore::get(const std::string& key) {
  ++stats_.gets;
  const auto it = index_.find(key);
  if (it == index_.end()) {
    return std::nullopt;
  }
  ++stats_.get_hits;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->value;
}

bool KvStore::erase(const std::string& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) {
    return false;
  }
  bytes_used_ -= item_cost(key, it->second->value);
  lru_.erase(it->second);
  index_.erase(it);
  stats_.bytes_stored = bytes_used_;
  return true;
}

double KvStore::hit_ratio() const {
  if (stats_.gets == 0) {
    return 0.0;
  }
  return static_cast<double>(stats_.get_hits) /
         static_cast<double>(stats_.gets);
}

}  // namespace apps
