// Differential test: the intrusive open-addressing PageCache against a
// naive reference LRU (std::list + std::unordered_map, the pre-optimization
// implementation). The optimized cache must agree *exactly* — hit/miss
// counters, occupancy, and per-key residency (which pins down the eviction
// order) — over randomized workloads with heavy eviction pressure.
#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <random>
#include <unordered_map>

#include "hostk/page_cache.h"

namespace {

using hostk::PageCache;
using hostk::PageKey;
using hostk::PageKeyHash;

/// Reference model: verbatim port of the original std::list-based cache.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::uint64_t capacity_bytes)
      : capacity_pages_(capacity_bytes / PageCache::kPageSize) {}

  bool access(PageKey key) {
    const auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      return false;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }

  void insert(PageKey key) {
    if (capacity_pages_ == 0) {
      return;
    }
    const auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.push_front(key);
    map_[key] = lru_.begin();
    while (map_.size() > capacity_pages_) {
      map_.erase(lru_.back());
      lru_.pop_back();
    }
  }

  std::uint64_t access_range(std::uint64_t file, std::uint64_t offset,
                             std::uint64_t len) {
    if (len == 0) {
      return 0;
    }
    const std::uint64_t first = offset / PageCache::kPageSize;
    const std::uint64_t last = (offset + len - 1) / PageCache::kPageSize;
    std::uint64_t miss_count = 0;
    for (std::uint64_t p = first; p <= last; ++p) {
      const PageKey key{file, p};
      if (!access(key)) {
        ++miss_count;
        insert(key);
      }
    }
    return miss_count;
  }

  bool resident(PageKey key) const { return map_.count(key) > 0; }
  void drop_caches() {
    lru_.clear();
    map_.clear();
  }

  std::uint64_t size_pages() const { return map_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  std::uint64_t capacity_pages_;
  std::list<PageKey> lru_;
  std::unordered_map<PageKey, std::list<PageKey>::iterator, PageKeyHash> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

constexpr std::uint64_t kFiles = 4;
constexpr std::uint64_t kPagesPerFile = 32;

/// Full-state agreement: counters plus residency of every key in the
/// universe (residency after eviction pressure pins down the LRU order).
void expect_same_state(const PageCache& cache, const ReferenceLru& ref) {
  ASSERT_EQ(cache.hits(), ref.hits());
  ASSERT_EQ(cache.misses(), ref.misses());
  ASSERT_EQ(cache.size_pages(), ref.size_pages());
  for (std::uint64_t f = 0; f < kFiles; ++f) {
    for (std::uint64_t p = 0; p < kPagesPerFile; ++p) {
      ASSERT_EQ(cache.resident(f, p * PageCache::kPageSize, 1),
                ref.resident(PageKey{f, p}))
          << "file " << f << " page " << p;
    }
  }
}

void run_differential(std::uint64_t capacity_bytes, std::uint32_t seed,
                      int ops) {
  PageCache cache(capacity_bytes);
  ReferenceLru ref(capacity_bytes);
  std::mt19937 rng(seed);
  const auto rand_file = [&] { return rng() % kFiles; };
  const auto rand_page = [&] { return rng() % kPagesPerFile; };
  for (int i = 0; i < ops; ++i) {
    switch (rng() % 10) {
      case 0:
      case 1:
      case 2: {  // single-page access
        const PageKey key{rand_file(), rand_page()};
        ASSERT_EQ(cache.access(key), ref.access(key));
        break;
      }
      case 3:
      case 4: {  // insert / refresh
        const PageKey key{rand_file(), rand_page()};
        cache.insert(key);
        ref.insert(key);
        break;
      }
      case 5:
      case 6:
      case 7:
      case 8: {  // ranged access, may span far more pages than capacity
        const std::uint64_t file = rand_file();
        const std::uint64_t offset =
            rand_page() * PageCache::kPageSize + rng() % 512;
        const std::uint64_t len = rng() % (16 * PageCache::kPageSize);
        ASSERT_EQ(cache.access_range(file, offset, len),
                  ref.access_range(file, offset, len));
        break;
      }
      default: {  // occasional full drop
        if (rng() % 8 == 0) {
          cache.drop_caches();
          ref.drop_caches();
        }
        break;
      }
    }
    expect_same_state(cache, ref);
  }
}

TEST(PageCacheModelTest, TinyCacheHeavyEviction) {
  run_differential(8 * PageCache::kPageSize, 0xC0FFEE, 1500);
}

TEST(PageCacheModelTest, MidCacheMixedWorkload) {
  run_differential(24 * PageCache::kPageSize, 0xBEEF, 1500);
}

TEST(PageCacheModelTest, CacheLargerThanUniverse) {
  run_differential(4096 * PageCache::kPageSize, 0xFACADE, 800);
}

TEST(PageCacheModelTest, ZeroCapacityAlwaysMisses) {
  run_differential(0, 0xD15EA5E, 500);
}

TEST(PageCacheModelTest, MissRunFarLargerThanTheCacheEvictsByExtent) {
  // 2^50 pages of one file through a 16-page cache: eviction trims whole
  // extents, so this costs a few steps, not one per evicted page.
  PageCache cache(16 * PageCache::kPageSize);
  const std::uint64_t bytes = 1ull << 62;
  EXPECT_EQ(cache.access_range(7, 0, bytes), 1ull << 50);
  EXPECT_EQ(cache.misses(), 1ull << 50);
  EXPECT_EQ(cache.size_pages(), 16u);
  EXPECT_TRUE(cache.resident(7, bytes - 16 * PageCache::kPageSize,
                             16 * PageCache::kPageSize));
  EXPECT_FALSE(cache.resident(7, bytes - 17 * PageCache::kPageSize, 1));
}

TEST(PageCacheModelTest, CapacityRoundsDownToWholePages) {
  // 2.5 pages of capacity behaves exactly like 2 pages.
  run_differential(2 * PageCache::kPageSize + PageCache::kPageSize / 2,
                   0xA11CE, 800);
}

}  // namespace
