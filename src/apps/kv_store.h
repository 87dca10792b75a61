// An in-memory key-value store: the storage engine behind our Memcached.
//
// Slab-style memory accounting and LRU eviction, like memcached's core,
// with nothing allocated per item but its key and value: items live in
// one vector of slots whose `prev`/`next` slot numbers form the LRU list,
// and an open-addressing table of slot numbers indexes them by key. The
// simulator runs real inserts and lookups; MemcachedBench charges each
// request a fixed store service time.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
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
  /// only if the item alone exceeds the memory limit. Throws
  /// std::length_error rather than hold more than 2^32 - 1 items.
  bool set(const std::string& key, std::string value);

  /// Fetch a value; refreshes LRU position on hit.
  std::optional<std::string> get(const std::string& key);

  /// Remove a key. Returns whether it existed.
  bool erase(const std::string& key);

  std::size_t size() const { return size_; }
  std::uint64_t bytes_used() const { return bytes_used_; }
  const KvStats& stats() const { return stats_; }
  double hit_ratio() const;

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;  // no slot

  /// A live item, or a free slot whose `next` chains the free list.
  struct Item {
    std::string key;
    std::string value;
    std::size_t hash = 0;        // std::hash of key
    std::uint32_t prev = kNone;  // toward the most recent item
    std::uint32_t next = kNone;  // toward the least recent item
  };

  static std::uint64_t item_cost(const std::string& key,
                                 const std::string& value);
  std::size_t mask() const { return table_.size() - 1; }
  /// The slot holding `key`, or kNone.
  std::uint32_t find(const std::string& key, std::size_t hash) const;
  /// Puts `slot` in the table, doubling the table first if it would be
  /// more than 3/4 full.
  void index(std::uint32_t slot);
  /// Takes `slot` out of the table; later entries of its probe run shift
  /// back, so the table needs no tombstones.
  void unindex(std::uint32_t slot);
  void unlink(std::uint32_t slot);
  void push_front(std::uint32_t slot);
  /// Unlinks, unindexes and frees a live slot.
  void drop(std::uint32_t slot);
  void evict_until_fits(std::uint64_t needed);

  std::uint64_t memory_limit_;
  std::uint64_t bytes_used_ = 0;
  std::size_t size_ = 0;
  std::vector<Item> items_;
  // Slot numbers (kNone = empty), linear probing; a power of two at most
  // 3/4 full.
  std::vector<std::uint32_t> table_;
  std::uint32_t head_ = kNone;  // most recently used
  std::uint32_t tail_ = kNone;  // least recently used, evicted first
  std::uint32_t free_ = kNone;  // first free slot
  KvStats stats_;
};

}  // namespace apps
