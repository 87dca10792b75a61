// Kernel Samepage Merging (KSM) model.
//
// Section 3.2 of the paper discusses KSM as a density/performance technique
// for hypervisor guests that simultaneously weakens the isolation boundary
// (cross-VM side channels, Irazoqui et al.). This model deduplicates
// identical pages across registered VMs and reports density gains; the
// multitenant_density example uses it, and the HAP study counts the ksmd
// scan functions it triggers.
//
// The stable tree is an interval map over digest ranges with refcounts,
// updated *incrementally* by advise()/remove() in O(runs touched) — not
// rebuilt per scan. Fleet-scale callers advise run-length PageRun ranges
// (contiguous digests) so a multi-GiB guest costs a handful of interval
// operations instead of one tree node per page. scan() itself is O(1): it
// only flips the model between the "advised but not yet merged" and
// "merged" accounting views.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

namespace mem {

/// Content hash of a guest page (the model never stores page bytes).
using PageDigest = std::uint64_t;

/// A run of `count` consecutive digests starting at `base_digest` — the
/// run-length representation of one contiguous guest memory region (zero
/// pages, image pages, private pages) that never materializes per-page.
struct PageRun {
  PageRun() = default;
  PageRun(PageDigest base, std::uint64_t n) : base_digest(base), count(n) {}

  PageDigest base_digest = 0;
  std::uint64_t count = 0;
};

class Ksm {
 public:
  /// What advising a run set would change, computed without mutating the
  /// tree (see probe_runs).
  struct ProbeDelta {
    /// Additional backing (distinct) pages the runs would create.
    std::uint64_t backing_delta = 0;
    /// Additional cross-VM shared pages the runs would create.
    std::uint64_t shared_delta = 0;
  };

  /// Register (MADV_MERGEABLE) a VM's pages, one digest per page.
  /// Consecutive digests are coalesced into runs internally.
  void advise(std::uint64_t vm_id, const std::vector<PageDigest>& pages);

  /// Read-only admission trial: the exact backing/shared-page delta that
  /// advise_runs(new_vm, runs) followed by scan() would cause, without
  /// touching the stable tree. A sorted sweep over the edges of the runs'
  /// pieces (apply_run's splitter) gives the m references each digest
  /// segment gains; each covered segment walks the tree once and applies
  /// r -> r + m, the closed form of m sequential adds, so self-overlapping
  /// runs count exactly (differential tests in tests/mem_test.cpp). The VM
  /// must not already be registered (advise_runs on a registered VM first
  /// drops its old runs, which a const probe cannot model).
  ProbeDelta probe_runs(const std::vector<PageRun>& runs) const;

  /// Register a VM's pages as digest runs (the fleet-scale fast path).
  void advise_runs(std::uint64_t vm_id, std::vector<PageRun> runs);

  /// Remove a VM (teardown); its contribution to the stable tree is dropped.
  void remove(std::uint64_t vm_id);

  /// One pass of ksmd: merges the advised duplicates. The stable tree is
  /// maintained incrementally, so this only switches the accounting view.
  /// Returns the number of pages newly merged in this pass.
  std::uint64_t scan();

  /// Unmerge storm (memory-pressure fault): every merged page re-expands
  /// to its own backing copy, as if the kernel broke COW on the whole
  /// stable tree at once. The tree itself is kept — the next scan()
  /// re-merges in one pass. Returns the number of pages re-expanded
  /// (backing_pages jumps by exactly this much).
  std::uint64_t unmerge() {
    if (!scanned_) {
      return 0;
    }
    scanned_ = false;
    return advised_ - distinct_;
  }

  /// Total pages advised across VMs.
  std::uint64_t advised_pages() const { return advised_; }

  /// Pages physically backing the advised set after merging.
  std::uint64_t backing_pages() const {
    return scanned_ ? distinct_ : advised_;
  }

  /// advised / backing; 1.0 = no sharing.
  double density_gain() const;

  /// Fraction of advised pages that share backing with at least one other
  /// VM — pages observable through a KSM timing side channel.
  double shared_fraction() const;

  /// Absolute count behind shared_fraction(): advised pages whose backing
  /// is shared with at least one other VM after the last scan.
  std::uint64_t shared_pages() const { return scanned_ ? shared_ : 0; }

  /// Stable-tree version: advise_runs() and a remove() of a registered VM,
  /// the only calls that change the tree, move it, so probe_runs() gives
  /// the same answer for the same runs while it stays put. scan() and
  /// unmerge() only switch the accounting view and leave it alone.
  std::uint64_t version() const { return version_; }

  /// Interval count of the stable tree — an implementation health metric:
  /// bounded by the number of distinct run boundaries alive, not by churn.
  std::size_t stable_tree_intervals() const {
    return tree_.size() + (max_digest_refs_ > 0 ? 1 : 0);
  }

 private:
  /// One stable-tree interval [start, end) of digests with a uniform
  /// refcount; keyed by start in tree_. Intervals are disjoint.
  struct Interval {
    PageDigest end = 0;
    std::uint64_t refs = 0;
  };

  /// Add (+1) or drop (-1) one reference for every digest in the
  /// non-empty [lo, hi), splitting intervals at the boundaries and moving
  /// the cached backing/shared counters by the refcount rule.
  void add_range(PageDigest lo, PageDigest hi, bool add);

  /// Re-merge adjacent intervals around [lo, hi] whose refcounts ended up
  /// equal, so churning clients with heterogeneous run boundaries cannot
  /// fragment the tree without bound.
  void coalesce(PageDigest lo, PageDigest hi);

  /// Apply one run's references. Intervals use exclusive ends, which cannot
  /// express 2^64, so the run splitter cuts a run reaching the top digest
  /// into [base, MAX), the MAX digest itself (its own refcount, moved by
  /// the same rule) and any wrapped remainder [0, rest).
  void apply_run(const PageRun& run, bool add);

  std::map<PageDigest, Interval> tree_;  // digest interval -> refs
  std::uint64_t max_digest_refs_ = 0;    // refs on digest 2^64-1 (see above)
  std::unordered_map<std::uint64_t, std::vector<PageRun>> clients_;
  std::uint64_t advised_ = 0;   // total refs = sum of run lengths
  std::uint64_t distinct_ = 0;  // total interval length (backing pages)
  std::uint64_t shared_ = 0;    // sum of len*refs over intervals with refs>1
  bool scanned_ = false;
  std::uint64_t version_ = 0;
};

}  // namespace mem
