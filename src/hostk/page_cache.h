// Host buffer (page) cache model.
//
// Central to the paper's I/O methodology: guests that bypass their own cache
// with O_DIRECT can still be served from the *host* page cache when the flag
// is not propagated through a loop device — the pitfall Section 3.3 works
// around by dropping host caches before each run. We model the cache at
// 4 KiB page granularity with LRU eviction.
//
// The LRU is *extent-based*: nodes represent runs of consecutive pages of
// one file whose recencies are themselves consecutive, linked MRU->LRU by
// intrusive 32-bit indices, with an ordered (file, start-page) index for
// coverage lookups. A sequential access_range() — the dominant pattern
// (boot images, I/O phases) — costs O(log extents) per overlap boundary
// instead of one probe per 4 KiB page, so a 64 MiB image pull is a handful
// of map operations rather than 16k hash lookups. Hit/miss accounting and
// eviction order are exactly those of a per-page LRU (the invariant: within
// an extent, recency increases with page number, so the LRU page is always
// the tail extent's first page); tests/page_cache_model_test.cpp pins the
// equivalence against a naive per-page reference.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace hostk {

/// Identifies a cached page: (file id, page index within the file).
struct PageKey {
  std::uint64_t file;
  std::uint64_t page;
  bool operator==(const PageKey& other) const {
    return file == other.file && page == other.page;
  }
};

struct PageKeyHash {
  std::size_t operator()(const PageKey& k) const {
    return std::hash<std::uint64_t>()(k.file * 0x9E3779B97F4A7C15ull + k.page);
  }
};

/// LRU page cache with hit/miss accounting.
class PageCache {
 public:
  static constexpr std::uint64_t kPageSize = 4096;

  /// `capacity_bytes` is rounded down to whole pages; zero disables caching.
  explicit PageCache(std::uint64_t capacity_bytes);

  /// Look up one page; promotes on hit. Returns true on hit.
  bool access(PageKey key);

  /// Insert (or refresh) a page, evicting LRU pages as needed.
  void insert(PageKey key);

  /// Access a byte range: returns the number of page *misses*; all touched
  /// pages are inserted (read-ahead/readback behavior).
  std::uint64_t access_range(std::uint64_t file, std::uint64_t offset,
                             std::uint64_t len);

  /// Whether the range is fully resident (no promotion side effects).
  bool resident(std::uint64_t file, std::uint64_t offset, std::uint64_t len) const;

  /// `echo 3 > /proc/sys/vm/drop_caches`.
  void drop_caches();

  std::uint64_t capacity_pages() const { return capacity_pages_; }
  std::uint64_t size_pages() const { return size_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  static constexpr std::uint32_t kNil = 0xFFFF'FFFFu;

  /// One cached extent: pages [start, end) of `file`. Within an extent,
  /// recency increases with page number (page `start` is its LRU end);
  /// extents are linked head_ (MRU) to tail_ (LRU).
  struct Node {
    std::uint64_t file = 0;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    std::uint64_t pages() const { return end - start; }
  };

  using IndexKey = std::pair<std::uint64_t, std::uint64_t>;  // (file, start)

  std::uint32_t alloc_node();
  void free_node(std::uint32_t n);
  void link_front(std::uint32_t n);
  void link_before(std::uint32_t n, std::uint32_t next);
  void unlink(std::uint32_t n);

  /// Extent covering (file, page), or kNil.
  std::uint32_t covering(std::uint64_t file, std::uint64_t page) const;

  /// Remove pages [lo, hi) from extent n (which must cover them), keeping
  /// the remainder's list position and recency order. size_ is unchanged —
  /// callers move the pages elsewhere or adjust size_ themselves.
  void carve(std::uint32_t n, std::uint64_t lo, std::uint64_t hi);

  /// Evict LRU pages until size_ fits the capacity: whole tail extents,
  /// each trimmed from its first page, which is the order a per-page LRU
  /// evicts in — so a miss run larger than the cache costs one step per
  /// extent, not per page.
  void evict_excess();

  /// Make (file, page) — currently inside extent n — the MRU page, like a
  /// per-page LRU's promote. Shared by access() hits and insert() refresh.
  void promote_page(std::uint32_t n, PageKey key);

  /// Link a fresh single-page extent for `key` at the head and index it
  /// (merging with a page-adjacent neighbor when possible).
  void link_single_front(PageKey key);

  /// Merge `n` with its list successor when file- and page-adjacent (the
  /// successor holding the immediately-preceding, immediately-less-recent
  /// pages). Keeps sequential workloads at one extent per file.
  void try_merge_with_next(std::uint32_t n);

  std::uint64_t capacity_pages_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_;        // recycled node indices
  std::map<IndexKey, std::uint32_t> index_;  // (file, start) -> node
  std::uint32_t head_ = kNil;  // most recently used extent
  std::uint32_t tail_ = kNil;  // least recently used extent
  std::uint64_t size_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace hostk
