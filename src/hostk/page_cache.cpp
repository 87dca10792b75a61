#include "hostk/page_cache.h"

#include <algorithm>

namespace hostk {

PageCache::PageCache(std::uint64_t capacity_bytes)
    : capacity_pages_(capacity_bytes / kPageSize) {}

std::uint32_t PageCache::alloc_node() {
  if (!free_.empty()) {
    const std::uint32_t n = free_.back();
    free_.pop_back();
    return n;
  }
  const auto n = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();
  return n;
}

void PageCache::free_node(std::uint32_t n) { free_.push_back(n); }

void PageCache::link_front(std::uint32_t n) {
  nodes_[n].prev = kNil;
  nodes_[n].next = head_;
  if (head_ != kNil) {
    nodes_[head_].prev = n;
  }
  head_ = n;
  if (tail_ == kNil) {
    tail_ = n;
  }
}

void PageCache::link_before(std::uint32_t n, std::uint32_t next) {
  const std::uint32_t p = nodes_[next].prev;
  nodes_[n].prev = p;
  nodes_[n].next = next;
  nodes_[next].prev = n;
  if (p != kNil) {
    nodes_[p].next = n;
  } else {
    head_ = n;
  }
}

void PageCache::unlink(std::uint32_t n) {
  const std::uint32_t p = nodes_[n].prev;
  const std::uint32_t q = nodes_[n].next;
  if (p != kNil) {
    nodes_[p].next = q;
  } else {
    head_ = q;
  }
  if (q != kNil) {
    nodes_[q].prev = p;
  } else {
    tail_ = p;
  }
}

std::uint32_t PageCache::covering(std::uint64_t file, std::uint64_t page) const {
  auto it = index_.upper_bound({file, page});
  if (it == index_.begin()) {
    return kNil;
  }
  --it;
  if (it->first.first != file) {
    return kNil;
  }
  const std::uint32_t n = it->second;
  return nodes_[n].end > page ? n : kNil;
}

void PageCache::carve(std::uint32_t n, std::uint64_t lo, std::uint64_t hi) {
  // By value: alloc_node() below may grow nodes_ and invalidate references.
  const std::uint64_t file = nodes_[n].file;
  const std::uint64_t start = nodes_[n].start;
  const std::uint64_t end = nodes_[n].end;
  if (start < lo && end > hi) {
    // Middle removal: the higher (more recent) fragment takes a new node
    // just head-ward of n; n keeps the lower fragment and its index key.
    const std::uint32_t h = alloc_node();
    nodes_[h] = Node{file, hi, end, kNil, kNil};
    nodes_[n].end = lo;
    link_before(h, n);
    index_[{file, hi}] = h;
    return;
  }
  if (start < lo) {
    nodes_[n].end = lo;
    return;
  }
  if (end > hi) {
    index_.erase({file, start});
    nodes_[n].start = hi;
    index_[{file, hi}] = n;
    return;
  }
  index_.erase({file, start});
  unlink(n);
  free_node(n);
}

void PageCache::evict_excess() {
  while (size_ > capacity_pages_) {
    const std::uint32_t t = tail_;
    Node& node = nodes_[t];
    const std::uint64_t excess = size_ - capacity_pages_;
    index_.erase({node.file, node.start});
    if (node.pages() <= excess) {
      size_ -= node.pages();
      unlink(t);
      free_node(t);
    } else {
      node.start += excess;
      size_ -= excess;
      index_[{node.file, node.start}] = t;
    }
  }
}

void PageCache::try_merge_with_next(std::uint32_t n) {
  const std::uint32_t m = nodes_[n].next;
  if (m == kNil) {
    return;
  }
  if (nodes_[m].file != nodes_[n].file || nodes_[m].end != nodes_[n].start) {
    return;
  }
  index_.erase({nodes_[n].file, nodes_[n].start});
  index_.erase({nodes_[m].file, nodes_[m].start});
  nodes_[n].start = nodes_[m].start;
  index_[{nodes_[n].file, nodes_[n].start}] = n;
  unlink(m);
  free_node(m);
}

void PageCache::promote_page(std::uint32_t n, PageKey key) {
  if (n == head_ && nodes_[n].end == key.page + 1) {
    return;  // already the MRU page
  }
  carve(n, key.page, key.page + 1);
  link_single_front(key);
}

void PageCache::link_single_front(PageKey key) {
  const std::uint32_t s = alloc_node();
  nodes_[s] = Node{key.file, key.page, key.page + 1, kNil, kNil};
  link_front(s);
  index_[{key.file, key.page}] = s;
  try_merge_with_next(s);
}

bool PageCache::access(PageKey key) {
  const std::uint32_t n = covering(key.file, key.page);
  if (n == kNil) {
    ++misses_;
    return false;
  }
  ++hits_;
  promote_page(n, key);
  return true;
}

void PageCache::insert(PageKey key) {
  if (capacity_pages_ == 0) {
    return;
  }
  const std::uint32_t n = covering(key.file, key.page);
  if (n != kNil) {
    promote_page(n, key);
    return;
  }
  link_single_front(key);
  ++size_;
  evict_excess();
}

std::uint64_t PageCache::access_range(std::uint64_t file, std::uint64_t offset,
                                      std::uint64_t len) {
  if (len == 0) {
    return 0;
  }
  const std::uint64_t first = offset / kPageSize;
  const std::uint64_t last = (offset + len - 1) / kPageSize;
  if (capacity_pages_ == 0) {
    // Caching disabled: nothing is ever resident, every page misses.
    const std::uint64_t n = last - first + 1;
    misses_ += n;
    return n;
  }
  std::uint64_t miss_count = 0;
  // The forming extent accumulates [first, cur) at the head as the walk
  // transfers hit runs and inserts miss runs — exactly the state a per-page
  // LRU reaches after promoting/inserting each page in ascending order.
  const std::uint32_t forming = alloc_node();
  nodes_[forming] = Node{file, first, first, kNil, kNil};
  link_front(forming);
  bool indexed = false;  // entered into index_ once non-empty
  std::uint64_t cur = first;
  while (cur <= last) {
    const std::uint32_t n = covering(file, cur);
    std::uint64_t seg_end;
    if (n != kNil) {
      seg_end = std::min(nodes_[n].end - 1, last);
      hits_ += seg_end - cur + 1;
      carve(n, cur, seg_end + 1);
    } else {
      seg_end = last;
      const auto it = index_.upper_bound({file, cur});
      if (it != index_.end() && it->first.first == file &&
          it->first.second <= last) {
        seg_end = it->first.second - 1;
      }
      const std::uint64_t n_miss = seg_end - cur + 1;
      misses_ += n_miss;
      miss_count += n_miss;
      size_ += n_miss;
    }
    nodes_[forming].end = seg_end + 1;
    if (!indexed) {
      index_[{file, nodes_[forming].start}] = forming;
      indexed = true;
    }
    cur = seg_end + 1;
    // Evicting after the whole run (not per page) removes the same LRU
    // pages in the same order; the forming extent is never emptied because
    // eviction stops at capacity >= 1 and it sits at the head.
    evict_excess();
  }
  try_merge_with_next(forming);
  return miss_count;
}

bool PageCache::resident(std::uint64_t file, std::uint64_t offset,
                         std::uint64_t len) const {
  if (len == 0) {
    return true;
  }
  const std::uint64_t first = offset / kPageSize;
  const std::uint64_t last = (offset + len - 1) / kPageSize;
  std::uint64_t cur = first;
  while (cur <= last) {
    const std::uint32_t n = covering(file, cur);
    if (n == kNil) {
      return false;
    }
    cur = nodes_[n].end;
  }
  return true;
}

void PageCache::drop_caches() {
  index_.clear();
  nodes_.clear();
  free_.clear();
  head_ = kNil;
  tail_ = kNil;
  size_ = 0;
}

}  // namespace hostk
