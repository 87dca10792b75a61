#include "mem/ksm.h"

#include <algorithm>
#include <utility>

namespace mem {

namespace {

constexpr PageDigest kMax = ~PageDigest{0};

/// The one refcount rule: move `len` digests from `before` to `after`
/// references. 0->1 adds a backing page, 1->2 makes both copies shared and
/// n->n+1 adds one shared copy; a drop runs the same rule backwards, and
/// unsigned wraparound makes its subtraction exact.
void account(std::uint64_t& distinct, std::uint64_t& shared,
             std::uint64_t before, std::uint64_t after, std::uint64_t len) {
  const auto shared_copies = [](std::uint64_t r) { return r >= 2 ? r : 0; };
  distinct += (std::uint64_t{after > 0} - std::uint64_t{before > 0}) * len;
  shared += (shared_copies(after) - shared_copies(before)) * len;
}

/// The one top-digest split. Intervals use exclusive ends, which cannot
/// express 2^64, so a run reaching digest 2^64-1 yields [base, MAX), the
/// MAX digest itself (through `top`) and any wrapped remainder [0, rest).
/// `range` only ever sees non-empty pieces.
template <typename Range, typename Top>
void for_each_piece(const PageRun& run, Range&& range, Top&& top) {
  if (run.count == 0) {
    return;
  }
  const PageDigest lo = run.base_digest;
  if (run.count - 1 < kMax - lo) {
    range(lo, lo + run.count);
    return;
  }
  if (lo < kMax) {
    range(lo, kMax);
  }
  top();
  const std::uint64_t rest = run.count - (kMax - lo) - 1;
  if (rest > 0) {
    range(PageDigest{0}, rest);
  }
}

}  // namespace

void Ksm::add_range(PageDigest lo, PageDigest hi, bool add) {
  auto it = tree_.lower_bound(lo);
  // Split a predecessor interval straddling lo so lo becomes a boundary.
  if (it != tree_.begin()) {
    const auto prev = std::prev(it);
    if (prev->second.end > lo) {
      const Interval tail{prev->second.end, prev->second.refs};
      prev->second.end = lo;
      it = tree_.insert(it, {lo, tail});
    }
  }
  PageDigest cur = lo;
  while (cur < hi) {
    const PageDigest next_start =
        (it == tree_.end() || it->first > hi) ? hi : it->first;
    if (cur < next_start) {
      // Gap [cur, next_start): digests with no backing yet. Dropping refs
      // in a gap cannot happen for well-formed clients; tolerate it.
      if (add) {
        account(distinct_, shared_, 0, 1, next_start - cur);
        it = std::next(tree_.insert(it, {cur, Interval{next_start, 1}}));
      }
      cur = next_start;
      continue;
    }
    // Interval starting exactly at cur. Split it if it straddles hi.
    if (it->second.end > hi) {
      const Interval tail{it->second.end, it->second.refs};
      it->second.end = hi;
      tree_.insert(std::next(it), {hi, tail});
    }
    const std::uint64_t r = it->second.refs;
    const std::uint64_t after = add ? r + 1 : r - 1;
    account(distinct_, shared_, r, after, it->second.end - cur);
    cur = it->second.end;
    if (after == 0) {
      it = tree_.erase(it);
    } else {
      it->second.refs = after;
      ++it;
    }
  }
}

void Ksm::coalesce(PageDigest lo, PageDigest hi) {
  auto it = tree_.lower_bound(lo);
  if (it != tree_.begin()) {
    --it;  // the interval ending at lo may now match its new neighbor
  }
  while (it != tree_.end() && it->first <= hi) {
    const auto next = std::next(it);
    if (next == tree_.end()) {
      break;
    }
    if (it->second.end == next->first &&
        it->second.refs == next->second.refs) {
      it->second.end = next->second.end;
      tree_.erase(next);
    } else {
      it = next;
    }
  }
}

void Ksm::advise(std::uint64_t vm_id, const std::vector<PageDigest>& pages) {
  std::vector<PageRun> runs;
  for (PageDigest d : pages) {
    if (!runs.empty() &&
        d == runs.back().base_digest + runs.back().count) {
      ++runs.back().count;
    } else {
      runs.push_back({d, 1});
    }
  }
  advise_runs(vm_id, std::move(runs));
}

void Ksm::apply_run(const PageRun& run, bool add) {
  for_each_piece(
      run,
      [&](PageDigest lo, PageDigest hi) {
        add_range(lo, hi, add);
        coalesce(lo, hi);
      },
      [&] {
        // A drop at 0 references is tolerated, like a gap in add_range.
        if (add || max_digest_refs_ > 0) {
          const std::uint64_t r = max_digest_refs_;
          max_digest_refs_ = add ? r + 1 : r - 1;
          account(distinct_, shared_, r, max_digest_refs_, 1);
        }
      });
}

Ksm::ProbeDelta Ksm::probe_runs(const std::vector<PageRun>& runs) const {
  // A +1 edge where each of the probe's pieces starts and a -1 edge where
  // it ends; the top digest only counts the runs that reach it.
  std::vector<std::pair<PageDigest, int>> edges;
  edges.reserve(4 * runs.size());
  std::uint64_t top_refs = 0;
  for (const auto& run : runs) {
    for_each_piece(
        run,
        [&edges](PageDigest lo, PageDigest hi) {
          edges.emplace_back(lo, 1);
          edges.emplace_back(hi, -1);
        },
        [&top_refs] { ++top_refs; });
  }
  std::sort(edges.begin(), edges.end());

  // Between consecutive edge positions the probe adds m references. r ->
  // r + m is the closed form of m sequential apply_run steps (the rule is
  // a difference of per-refcount terms), so self-overlapping runs count
  // exactly as advise_runs would count them.
  ProbeDelta delta;
  account(delta.backing_delta, delta.shared_delta, max_digest_refs_,
          max_digest_refs_ + top_refs, 1);
  std::uint64_t m = 0;
  for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
    m += static_cast<std::uint64_t>(edges[i].second);
    const PageDigest lo = edges[i].first;
    const PageDigest hi = edges[i + 1].first;
    if (m == 0 || lo == hi) {
      continue;
    }
    // Walk the tree's uniform pieces over [lo, hi); gaps hold 0 refs.
    auto it = tree_.upper_bound(lo);
    if (it != tree_.begin() && std::prev(it)->second.end > lo) {
      --it;
    }
    for (PageDigest cur = lo; cur < hi;) {
      if (it != tree_.end() && it->second.end <= cur) {
        ++it;  // only once its interval is used up and the segment goes on
      }
      std::uint64_t r = 0;
      PageDigest next = hi;
      if (it != tree_.end() && it->first <= cur) {
        r = it->second.refs;
        next = std::min(hi, it->second.end);
      } else if (it != tree_.end()) {
        next = std::min(hi, it->first);
      }
      account(delta.backing_delta, delta.shared_delta, r, r + m, next - cur);
      cur = next;
    }
  }
  return delta;
}

void Ksm::advise_runs(std::uint64_t vm_id, std::vector<PageRun> runs) {
  remove(vm_id);
  for (const auto& r : runs) {
    apply_run(r, /*add=*/true);
    advised_ += r.count;
  }
  clients_[vm_id] = std::move(runs);
  scanned_ = false;
  ++version_;
}

void Ksm::remove(std::uint64_t vm_id) {
  const auto it = clients_.find(vm_id);
  if (it != clients_.end()) {
    for (const auto& r : it->second) {
      apply_run(r, /*add=*/false);
      advised_ -= r.count;
    }
    clients_.erase(it);
    ++version_;
  }
  scanned_ = false;
}

std::uint64_t Ksm::scan() {
  const std::uint64_t before = backing_pages();
  scanned_ = true;
  const std::uint64_t after = distinct_;
  return before > after ? before - after : 0;
}

double Ksm::density_gain() const {
  const std::uint64_t backing = backing_pages();
  if (backing == 0) {
    return 1.0;
  }
  return static_cast<double>(advised_) / static_cast<double>(backing);
}

double Ksm::shared_fraction() const {
  if (!scanned_ || advised_ == 0) {
    return 0.0;
  }
  return static_cast<double>(shared_) / static_cast<double>(advised_);
}

}  // namespace mem
