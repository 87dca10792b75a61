// Tests for the memory-hierarchy and KSM models.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "mem/hierarchy.h"
#include "mem/ksm.h"
#include "sim/rng.h"
#include "stats/summary.h"

namespace {

using mem::HierarchySpec;
using mem::Ksm;
using mem::MemoryHierarchy;
using mem::MemoryProfile;

MemoryProfile native_profile() { return {}; }

MemoryProfile firecracker_profile() {
  MemoryProfile p;
  p.ept = true;
  p.backing_extra_ns = 26.0;
  p.backing_jitter = 0.45;
  p.bandwidth_factor = 0.78;
  return p;
}

double mean_latency(const MemoryHierarchy& h, std::uint64_t buffer,
                    const MemoryProfile& p, bool hugepages, int runs = 50) {
  sim::Rng rng(42);
  stats::Summary s;
  for (int i = 0; i < runs; ++i) {
    s.add(h.random_access_extra_ns(buffer, p, hugepages, rng));
  }
  return s.mean();
}

TEST(HierarchyTest, LatencyMonotonicInBufferSize) {
  MemoryHierarchy h;
  const auto p = native_profile();
  double prev = -1.0;
  for (int n = 16; n <= 26; ++n) {
    const double lat = mean_latency(h, 1ull << n, p, false);
    EXPECT_GE(lat, prev) << "buffer 2^" << n;
    prev = lat;
  }
}

// Property sweep: monotonicity holds for every platform profile.
class HierarchyMonotonicity
    : public ::testing::TestWithParam<std::tuple<bool, double, bool>> {};

TEST_P(HierarchyMonotonicity, LatencyNonDecreasing) {
  const auto [ept, backing, hugepages] = GetParam();
  MemoryProfile p;
  p.ept = ept;
  p.backing_extra_ns = backing;
  MemoryHierarchy h;
  double prev = -1.0;
  for (int n = 16; n <= 26; ++n) {
    const double lat = mean_latency(h, 1ull << n, p, hugepages);
    EXPECT_GE(lat, prev - 0.5);  // allow sub-noise wiggle
    prev = lat;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, HierarchyMonotonicity,
    ::testing::Combine(::testing::Bool(), ::testing::Values(0.0, 15.0, 30.0),
                       ::testing::Bool()));

TEST(HierarchyTest, SmallBufferIsNearZeroExtra) {
  MemoryHierarchy h;
  // 2^14 fits in L1: extra over L1 should be ~0.
  EXPECT_LT(mean_latency(h, 1 << 14, native_profile(), false), 1.0);
}

TEST(HierarchyTest, EptIncreasesLargeBufferLatency) {
  MemoryHierarchy h;
  MemoryProfile ept;
  ept.ept = true;
  const double native = mean_latency(h, 1ull << 26, native_profile(), false);
  const double virt = mean_latency(h, 1ull << 26, ept, false);
  EXPECT_GT(virt, native * 1.05);
}

TEST(HierarchyTest, FirecrackerWorstLatencyAndVariance) {
  MemoryHierarchy h;
  sim::Rng rng(7);
  stats::Summary fc, native;
  for (int i = 0; i < 200; ++i) {
    fc.add(h.random_access_extra_ns(1ull << 26, firecracker_profile(), false, rng));
    native.add(h.random_access_extra_ns(1ull << 26, native_profile(), false, rng));
  }
  EXPECT_GT(fc.mean(), native.mean() * 1.2);
  EXPECT_GT(fc.stddev(), native.stddev() * 1.5);
}

TEST(HierarchyTest, HugePagesRelieveLargeBuffers) {
  MemoryHierarchy h;
  const auto p = native_profile();
  const double regular = mean_latency(h, 1ull << 26, p, false);
  const double huge = mean_latency(h, 1ull << 26, p, true);
  // Paper: ~30% lower access latency in the larger buffers.
  EXPECT_LT(huge, regular * 0.85);
}

TEST(HierarchyTest, HugePageUnsupportedPlatformSeesNoRelief) {
  MemoryHierarchy h;
  MemoryProfile kata_no_huge;           // Kata does not support HugePages
  kata_no_huge.hugepage_support = false;
  const double regular = mean_latency(h, 1ull << 26, kata_no_huge, false);
  const double requested_huge = mean_latency(h, 1ull << 26, kata_no_huge, true);
  EXPECT_NEAR(requested_huge / regular, 1.0, 0.05);
}

TEST(HierarchyTest, TlbMissFractionBounds) {
  MemoryHierarchy h;
  EXPECT_DOUBLE_EQ(h.tlb_miss_fraction(0, false), 0.0);
  EXPECT_DOUBLE_EQ(h.tlb_miss_fraction(1 << 16, false), 0.0);  // covered
  EXPECT_GT(h.tlb_miss_fraction(1ull << 26, false), 0.85);
  EXPECT_DOUBLE_EQ(h.tlb_miss_fraction(1ull << 26, true), 0.0);  // 2M pages
}

TEST(HierarchyTest, DramFractionBounds) {
  MemoryHierarchy h;
  EXPECT_DOUBLE_EQ(h.dram_fraction(1 << 16), 0.0);
  EXPECT_GT(h.dram_fraction(1ull << 30), 0.97);
  EXPECT_LE(h.dram_fraction(1ull << 30), 1.0);
}

TEST(HierarchyTest, BandwidthFactorScalesThroughput) {
  MemoryHierarchy h;
  sim::Rng rng(11);
  stats::Summary native_bw, fc_bw;
  for (int i = 0; i < 100; ++i) {
    native_bw.add(h.copy_bandwidth(MemoryHierarchy::CopyKind::kRegular,
                                   native_profile(), rng));
    fc_bw.add(h.copy_bandwidth(MemoryHierarchy::CopyKind::kRegular,
                               firecracker_profile(), rng));
  }
  EXPECT_NEAR(fc_bw.mean() / native_bw.mean(), 0.78, 0.03);
}

TEST(HierarchyTest, Sse2FasterThanRegularCopy) {
  MemoryHierarchy h;
  sim::Rng rng(13);
  const auto p = native_profile();
  stats::Summary reg, sse;
  for (int i = 0; i < 100; ++i) {
    reg.add(h.copy_bandwidth(MemoryHierarchy::CopyKind::kRegular, p, rng));
    sse.add(h.copy_bandwidth(MemoryHierarchy::CopyKind::kSse2, p, rng));
  }
  EXPECT_GT(sse.mean(), reg.mean());
}

TEST(KsmTest, NoSharingWithoutScan) {
  Ksm ksm;
  ksm.advise(1, {1, 2, 3});
  EXPECT_EQ(ksm.backing_pages(), 3u);
  EXPECT_DOUBLE_EQ(ksm.density_gain(), 1.0);
}

TEST(KsmTest, IdenticalVmsMergeFully) {
  Ksm ksm;
  ksm.advise(1, {10, 20, 30});
  ksm.advise(2, {10, 20, 30});
  const auto merged = ksm.scan();
  EXPECT_EQ(merged, 3u);
  EXPECT_EQ(ksm.advised_pages(), 6u);
  EXPECT_EQ(ksm.backing_pages(), 3u);
  EXPECT_DOUBLE_EQ(ksm.density_gain(), 2.0);
  EXPECT_DOUBLE_EQ(ksm.shared_fraction(), 1.0);
}

TEST(KsmTest, DisjointVmsShareNothing) {
  Ksm ksm;
  ksm.advise(1, {1, 2});
  ksm.advise(2, {3, 4});
  ksm.scan();
  EXPECT_EQ(ksm.backing_pages(), 4u);
  EXPECT_DOUBLE_EQ(ksm.shared_fraction(), 0.0);
}

TEST(KsmTest, RemoveVmRestoresIsolation) {
  Ksm ksm;
  ksm.advise(1, {10, 20});
  ksm.advise(2, {10, 20});
  ksm.scan();
  ksm.remove(2);
  ksm.scan();
  EXPECT_EQ(ksm.advised_pages(), 2u);
  EXPECT_DOUBLE_EQ(ksm.shared_fraction(), 0.0);
}

TEST(KsmTest, ReAdviseReplacesPages) {
  Ksm ksm;
  ksm.advise(1, {1, 2, 3});
  ksm.advise(1, {4});
  EXPECT_EQ(ksm.advised_pages(), 1u);
}

TEST(KsmTest, PartialOverlap) {
  Ksm ksm;
  ksm.advise(1, {1, 2, 3, 4});
  ksm.advise(2, {3, 4, 5, 6});
  ksm.scan();
  EXPECT_EQ(ksm.backing_pages(), 6u);
  EXPECT_DOUBLE_EQ(ksm.shared_fraction(), 0.5);
}

TEST(KsmTest, RunAdviseMatchesPerPageAdvise) {
  // The run-length fast path must be observationally identical to advising
  // the same digests one page at a time.
  Ksm per_page, runs;
  per_page.advise(1, {100, 101, 102, 103, 200, 201});
  runs.advise_runs(1, {{100, 4}, {200, 2}});
  per_page.advise(2, {102, 103, 104, 200});
  runs.advise_runs(2, {{102, 3}, {200, 1}});
  EXPECT_EQ(per_page.advised_pages(), runs.advised_pages());
  EXPECT_EQ(per_page.scan(), runs.scan());
  EXPECT_EQ(per_page.backing_pages(), runs.backing_pages());
  EXPECT_DOUBLE_EQ(per_page.density_gain(), runs.density_gain());
  EXPECT_DOUBLE_EQ(per_page.shared_fraction(), runs.shared_fraction());

  per_page.remove(1);
  runs.remove(1);
  EXPECT_EQ(per_page.scan(), runs.scan());
  EXPECT_EQ(per_page.backing_pages(), runs.backing_pages());
  EXPECT_DOUBLE_EQ(per_page.shared_fraction(), runs.shared_fraction());
}

TEST(KsmTest, RunsSplitAndRejoinAcrossPartialOverlaps) {
  // Three clients whose runs slice each other's intervals: refcounts must
  // stay exact through every incremental remove, with no full rescan.
  Ksm ksm;
  ksm.advise_runs(1, {{0, 100}});
  ksm.advise_runs(2, {{50, 100}});   // overlaps [50,100)
  ksm.advise_runs(3, {{75, 50}});    // overlaps both: [75,100) x3, [100,125) x2
  ksm.scan();
  EXPECT_EQ(ksm.advised_pages(), 250u);
  EXPECT_EQ(ksm.backing_pages(), 150u);  // distinct digests 0..150
  // Digests with refs>=2 span [50,125): refs are 2,3,2 over its three
  // 25-page slices, so 175 of the 250 advised copies share backing.
  EXPECT_DOUBLE_EQ(ksm.shared_fraction(), (25 * 2 + 25 * 3 + 25 * 2) / 250.0);

  ksm.remove(2);
  ksm.scan();
  EXPECT_EQ(ksm.advised_pages(), 150u);
  EXPECT_EQ(ksm.backing_pages(), 125u);  // [0,100) + [100,125)
  EXPECT_DOUBLE_EQ(ksm.shared_fraction(), (25 * 2) / 150.0);  // [75,100)x2

  ksm.remove(1);
  ksm.remove(3);
  ksm.scan();
  EXPECT_EQ(ksm.advised_pages(), 0u);
  EXPECT_EQ(ksm.backing_pages(), 0u);
  EXPECT_DOUBLE_EQ(ksm.density_gain(), 1.0);
}

TEST(KsmTest, EmptyAndZeroLengthRunsAreIgnored) {
  Ksm ksm;
  ksm.advise_runs(1, {{10, 0}, {20, 5}, {30, 0}});
  EXPECT_EQ(ksm.advised_pages(), 5u);
  ksm.scan();
  EXPECT_EQ(ksm.backing_pages(), 5u);
  ksm.remove(1);
  EXPECT_EQ(ksm.advised_pages(), 0u);
}

TEST(KsmTest, ChurnWithHeterogeneousBoundariesDoesNotFragmentTheTree) {
  // A long-lived client plus short-lived clients whose run boundaries all
  // differ: every removal must coalesce the splits it leaves behind, or
  // the stable tree would grow ~2 intervals per churn cycle forever.
  Ksm ksm;
  ksm.advise_runs(1, {{0, 1000}});
  for (std::uint64_t i = 0; i < 200; ++i) {
    const mem::PageDigest lo = 100 + (i * 7) % 500;
    ksm.advise_runs(2, {{lo, 300}});
    ksm.remove(2);
  }
  ksm.scan();
  EXPECT_EQ(ksm.stable_tree_intervals(), 1u);
  EXPECT_EQ(ksm.backing_pages(), 1000u);
  EXPECT_EQ(ksm.advised_pages(), 1000u);
}

TEST(KsmTest, TopDigestIsTrackedLikeAnyOther) {
  // Digest 2^64-1 cannot live in an exclusive-end interval, and the run
  // builder coalesces {MAX, 0} into a wrapping run; both must still count.
  constexpr mem::PageDigest kMax = ~mem::PageDigest{0};
  Ksm ksm;
  ksm.advise(1, {kMax, 0});  // coalesces into {base=kMax, count=2}
  ksm.advise(2, {kMax});
  EXPECT_EQ(ksm.advised_pages(), 3u);
  EXPECT_EQ(ksm.scan(), 1u);  // kMax merges across the two clients
  EXPECT_EQ(ksm.backing_pages(), 2u);
  EXPECT_DOUBLE_EQ(ksm.shared_fraction(), 2.0 / 3.0);
  ksm.remove(1);
  ksm.scan();
  EXPECT_EQ(ksm.advised_pages(), 1u);
  EXPECT_EQ(ksm.backing_pages(), 1u);
  ksm.remove(2);
  ksm.scan();
  EXPECT_EQ(ksm.backing_pages(), 0u);
  EXPECT_EQ(ksm.stable_tree_intervals(), 0u);
}

TEST(KsmTest, RandomizedAgainstPerDigestReference) {
  // Random advise/remove churn over six VMs, checked after every operation
  // against a brute-force refcount per digest built from the live VMs'
  // runs. Some runs start just below the top digest and may wrap.
  constexpr mem::PageDigest kMax = ~mem::PageDigest{0};
  sim::Rng rng(0x5EED'D16E57ull);
  for (int round = 0; round < 200; ++round) {
    Ksm ksm;
    std::map<std::uint64_t, std::vector<mem::PageRun>> live;
    for (int op = 0; op < 30; ++op) {
      const std::uint64_t vm = rng.next_u64() % 6;
      if (rng.chance(0.3)) {
        ksm.remove(vm);
        live.erase(vm);
      } else {
        std::vector<mem::PageRun> runs;
        const int n = 1 + static_cast<int>(rng.next_u64() % 3);
        for (int r = 0; r < n; ++r) {
          if (rng.chance(0.15)) {
            runs.push_back({kMax - rng.next_u64() % 6, rng.next_u64() % 12});
          } else {
            runs.push_back({rng.next_u64() % 96, rng.next_u64() % 32});
          }
        }
        ksm.advise_runs(vm, runs);
        live[vm] = runs;
      }
      ksm.scan();

      std::map<mem::PageDigest, std::uint64_t> refs;
      for (const auto& [id, runs] : live) {
        for (const mem::PageRun& run : runs) {
          for (std::uint64_t i = 0; i < run.count; ++i) {
            ++refs[run.base_digest + i];  // wraps past the top digest
          }
        }
      }
      std::uint64_t advised = 0;
      std::uint64_t shared = 0;
      std::size_t intervals = 0;
      const std::pair<const mem::PageDigest, std::uint64_t>* prev = nullptr;
      for (const auto& entry : refs) {
        advised += entry.second;
        shared += entry.second >= 2 ? entry.second : 0;
        // A maximal run of consecutive digests with equal refs is one
        // interval; the top digest always has its own.
        if (entry.first == kMax || prev == nullptr ||
            prev->first + 1 != entry.first || prev->second != entry.second) {
          ++intervals;
        }
        prev = &entry;
      }
      ASSERT_EQ(ksm.advised_pages(), advised) << round << "/" << op;
      ASSERT_EQ(ksm.backing_pages(), refs.size()) << round << "/" << op;
      ASSERT_EQ(ksm.shared_pages(), shared) << round << "/" << op;
      ASSERT_EQ(ksm.stable_tree_intervals(), intervals) << round << "/" << op;
    }
  }
}

// --- probe_runs: read-only admission trials -------------------------------

/// The probe contract: probe_runs(runs) predicts exactly what
/// advise_runs(new_vm, runs) + scan() changes, and removing the VM again
/// restores the pre-probe state — all observed through the public
/// counters. Requires the tree to be in its scanned state so
/// backing_pages() reads distinct pages on both sides of the comparison.
void expect_probe_matches_mutation(Ksm& ksm,
                                   const std::vector<mem::PageRun>& runs,
                                   std::uint64_t vm_id) {
  ksm.scan();
  const std::uint64_t backing_before = ksm.backing_pages();
  const std::uint64_t shared_before = ksm.shared_pages();
  const std::uint64_t advised_before = ksm.advised_pages();

  const Ksm::ProbeDelta delta = ksm.probe_runs(runs);
  // const probe: nothing observable moved.
  ASSERT_EQ(ksm.backing_pages(), backing_before);
  ASSERT_EQ(ksm.shared_pages(), shared_before);
  ASSERT_EQ(ksm.advised_pages(), advised_before);

  ksm.advise_runs(vm_id, runs);
  ksm.scan();
  ASSERT_EQ(ksm.backing_pages(), backing_before + delta.backing_delta);
  ASSERT_EQ(ksm.shared_pages(), shared_before + delta.shared_delta);

  ksm.remove(vm_id);
  ksm.scan();
  ASSERT_EQ(ksm.backing_pages(), backing_before);
  ASSERT_EQ(ksm.shared_pages(), shared_before);
  ASSERT_EQ(ksm.advised_pages(), advised_before);
}

TEST(KsmProbeTest, EmptyTreeAndEmptyRuns) {
  Ksm ksm;
  const auto none = ksm.probe_runs({});
  EXPECT_EQ(none.backing_delta, 0u);
  EXPECT_EQ(none.shared_delta, 0u);
  const auto first = ksm.probe_runs({{100, 10}});
  EXPECT_EQ(first.backing_delta, 10u);
  EXPECT_EQ(first.shared_delta, 0u);
  expect_probe_matches_mutation(ksm, {{100, 10}, {0, 0}}, 1);
}

TEST(KsmProbeTest, OverlapAndSelfOverlap) {
  Ksm ksm;
  ksm.advise_runs(1, {{0, 50}, {200, 25}});
  // Overlaps the tree, a fresh range, and itself (the duplicated {10, 20}
  // must count as a second reference, exactly like advise_runs applying
  // the runs in order).
  expect_probe_matches_mutation(
      ksm, {{10, 20}, {40, 200}, {10, 20}, {500, 5}}, 2);
}

TEST(KsmProbeTest, TopDigestDecomposition) {
  constexpr mem::PageDigest kMax = ~mem::PageDigest{0};
  Ksm ksm;
  ksm.advise_runs(1, {{kMax - 10, 11}});  // reaches digest 2^64-1
  ksm.advise_runs(2, {{0, 7}});
  // A run that hits the top digest and wraps onto [0, ...): the probe must
  // mirror apply_run's decomposition (range below max, the max digest's
  // dedicated refcount, the wrapped remainder).
  expect_probe_matches_mutation(ksm, {{kMax - 4, 12}}, 3);
  expect_probe_matches_mutation(ksm, {{kMax, 1}}, 4);
}

TEST(KsmProbeTest, RandomizedDifferentialAgainstMutateRollback) {
  sim::Rng rng(0x9D0BE5EEDull);
  for (int round = 0; round < 40; ++round) {
    Ksm ksm;
    // Seed the tree with a handful of resident VMs over a small digest
    // space so probes collide with existing intervals constantly.
    const int resident = 1 + static_cast<int>(rng.next_u64() % 4);
    for (int vm = 0; vm < resident; ++vm) {
      std::vector<mem::PageRun> runs;
      const int n = 1 + static_cast<int>(rng.next_u64() % 4);
      for (int r = 0; r < n; ++r) {
        runs.push_back({rng.next_u64() % 128, rng.next_u64() % 64});
      }
      ksm.advise_runs(static_cast<std::uint64_t>(vm), std::move(runs));
    }
    // Probe an arbitrary run set, including occasional top-digest runs.
    std::vector<mem::PageRun> probe;
    const int n = 1 + static_cast<int>(rng.next_u64() % 5);
    for (int r = 0; r < n; ++r) {
      if (rng.chance(0.2)) {
        constexpr mem::PageDigest kMax = ~mem::PageDigest{0};
        probe.push_back({kMax - (rng.next_u64() % 8),
                         1 + rng.next_u64() % 16});
      } else {
        probe.push_back({rng.next_u64() % 128, rng.next_u64() % 64});
      }
    }
    expect_probe_matches_mutation(ksm, probe, 1000);
  }
}

TEST(KsmProbeTest, ProbeLeavesTreeShapeUntouched) {
  Ksm ksm;
  ksm.advise_runs(1, {{0, 32}, {64, 32}});
  ksm.scan();
  const std::size_t intervals = ksm.stable_tree_intervals();
  (void)ksm.probe_runs({{16, 64}, {200, 10}});
  EXPECT_EQ(ksm.stable_tree_intervals(), intervals);
}

TEST(KsmTest, DuplicateRunsWithinOneClientCountTwice) {
  // A client advising the same digest range twice holds two references,
  // exactly like the per-page model advising duplicate digests.
  Ksm per_page, runs;
  per_page.advise(1, {7, 8, 7, 8});
  runs.advise_runs(1, {{7, 2}, {7, 2}});
  EXPECT_EQ(per_page.scan(), runs.scan());
  EXPECT_EQ(runs.advised_pages(), 4u);
  EXPECT_EQ(runs.backing_pages(), 2u);
  EXPECT_DOUBLE_EQ(per_page.shared_fraction(), runs.shared_fraction());
}

}  // namespace
