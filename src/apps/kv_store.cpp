#include "apps/kv_store.h"

#include <functional>
#include <stdexcept>

namespace apps {

namespace {
constexpr std::uint64_t kPerItemOverhead = 56;  // header + pointers
constexpr std::size_t kInitialTableSize = 16;
}

KvStore::KvStore(std::uint64_t memory_limit_bytes)
    : memory_limit_(memory_limit_bytes), table_(kInitialTableSize, kNone) {}

std::uint64_t KvStore::item_cost(const std::string& key,
                                 const std::string& value) {
  return key.size() + value.size() + kPerItemOverhead;
}

std::uint32_t KvStore::find(const std::string& key, std::size_t hash) const {
  for (std::size_t pos = hash & mask();; pos = (pos + 1) & mask()) {
    const std::uint32_t slot = table_[pos];
    if (slot == kNone ||
        (items_[slot].hash == hash && items_[slot].key == key)) {
      return slot;
    }
  }
}

void KvStore::index(std::uint32_t slot) {
  const auto place = [this](std::uint32_t s) {
    std::size_t pos = items_[s].hash & mask();
    while (table_[pos] != kNone) {
      pos = (pos + 1) & mask();
    }
    table_[pos] = s;
  };
  if ((size_ + 1) * 4 > table_.size() * 3) {
    std::vector<std::uint32_t> old(2 * table_.size(), kNone);
    table_.swap(old);
    for (const std::uint32_t s : old) {
      if (s != kNone) {
        place(s);
      }
    }
  }
  place(slot);
  ++size_;
}

void KvStore::unindex(std::uint32_t slot) {
  std::size_t hole = items_[slot].hash & mask();
  while (table_[hole] != slot) {
    hole = (hole + 1) & mask();
  }
  for (std::size_t pos = (hole + 1) & mask(); table_[pos] != kNone;
       pos = (pos + 1) & mask()) {
    // The entry at `pos` fills the hole unless its home position lies in
    // the cyclic range (hole, pos].
    const std::size_t home = items_[table_[pos]].hash & mask();
    if (((pos - home) & mask()) >= ((pos - hole) & mask())) {
      table_[hole] = table_[pos];
      hole = pos;
    }
  }
  table_[hole] = kNone;
  --size_;
}

void KvStore::unlink(std::uint32_t slot) {
  const Item& item = items_[slot];
  (item.prev == kNone ? head_ : items_[item.prev].next) = item.next;
  (item.next == kNone ? tail_ : items_[item.next].prev) = item.prev;
}

void KvStore::push_front(std::uint32_t slot) {
  Item& item = items_[slot];
  item.prev = kNone;
  item.next = head_;
  (head_ == kNone ? tail_ : items_[head_].prev) = slot;
  head_ = slot;
}

void KvStore::drop(std::uint32_t slot) {
  unlink(slot);
  unindex(slot);
  items_[slot] = Item{};  // frees the key and value
  items_[slot].next = free_;
  free_ = slot;
}

void KvStore::evict_until_fits(std::uint64_t needed) {
  while (bytes_used_ + needed > memory_limit_ && tail_ != kNone) {
    const Item& victim = items_[tail_];
    bytes_used_ -= item_cost(victim.key, victim.value);
    drop(tail_);
    ++stats_.evictions;
  }
}

bool KvStore::set(const std::string& key, std::string value) {
  ++stats_.sets;
  const std::uint64_t needed = item_cost(key, value);
  if (needed > memory_limit_) {
    return false;
  }
  const std::size_t hash = std::hash<std::string>{}(key);
  std::uint32_t slot = find(key, hash);
  if (slot != kNone) {
    // An overwrite leaves the LRU list before evicting, so the eviction
    // below cannot reach `key`; its slot stays indexed.
    bytes_used_ -= item_cost(key, items_[slot].value);
    unlink(slot);
    evict_until_fits(needed);
  } else {
    evict_until_fits(needed);
    if (free_ != kNone) {
      slot = free_;
      free_ = items_[slot].next;
    } else {
      if (items_.size() == kNone) {
        throw std::length_error("KvStore: more than 2^32 - 1 items");
      }
      slot = static_cast<std::uint32_t>(items_.size());
      items_.emplace_back();
    }
    items_[slot].key = key;
    items_[slot].hash = hash;
    index(slot);
  }
  items_[slot].value = std::move(value);
  push_front(slot);
  bytes_used_ += needed;
  stats_.bytes_stored = bytes_used_;
  return true;
}

std::optional<std::string> KvStore::get(const std::string& key) {
  ++stats_.gets;
  const std::uint32_t slot = find(key, std::hash<std::string>{}(key));
  if (slot == kNone) {
    return std::nullopt;
  }
  ++stats_.get_hits;
  unlink(slot);
  push_front(slot);
  return items_[slot].value;
}

bool KvStore::erase(const std::string& key) {
  const std::uint32_t slot = find(key, std::hash<std::string>{}(key));
  if (slot == kNone) {
    return false;
  }
  bytes_used_ -= item_cost(key, items_[slot].value);
  drop(slot);
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
