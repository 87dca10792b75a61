// An in-memory key-value store: the storage engine behind our Memcached.
//
// A real chained hash table with slab-style memory accounting and LRU
// eviction, like memcached's core. The simulator runs actual inserts and
// lookups; per-operation probe counts feed the service-time model.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace apps {

struct KvStats {
  std::uint64_t gets = 0;
  std::uint64_t get_hits = 0;
  std::uint64_t sets = 0;
  std::uint64_t evictions = 0;
  std::uint64_t bytes_stored = 0;
};

/// memcached-like store: bounded memory, LRU eviction, flat string values.
class KvStore {
 public:
  explicit KvStore(std::uint64_t memory_limit_bytes = 256ull << 20);

  /// Store (or replace) a value. Evicts LRU entries to fit. Returns false
  /// only if the item alone exceeds the memory limit.
  bool set(const std::string& key, std::string value);

  /// Fetch a value; refreshes LRU position on hit.
  std::optional<std::string> get(const std::string& key);

  /// Remove a key. Returns whether it existed.
  bool erase(const std::string& key);

  std::size_t size() const { return index_.size(); }
  std::uint64_t bytes_used() const { return bytes_used_; }
  const KvStats& stats() const { return stats_; }
  double hit_ratio() const;

 private:
  struct Item {
    std::string key;
    std::string value;
  };
  using LruList = std::list<Item>;

  static std::uint64_t item_cost(const std::string& key,
                                 const std::string& value);
  void evict_until_fits(std::uint64_t needed);

  std::uint64_t memory_limit_;
  std::uint64_t bytes_used_ = 0;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::string, LruList::iterator> index_;
  KvStats stats_;
};

}  // namespace apps
