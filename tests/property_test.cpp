// Cross-cutting property tests: components are checked against simple
// reference models under randomized operation streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <unordered_map>
#include <vector>

#include "core/boot.h"
#include "hostk/page_cache.h"
#include "sim/rng.h"
#include "stats/sample_set.h"

namespace {

// --- PageCache vs a reference LRU model ------------------------------------

class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  bool access(std::uint64_t key) {
    const auto it = pos_.find(key);
    if (it == pos_.end()) {
      return false;
    }
    order_.splice(order_.begin(), order_, it->second);
    return true;
  }

  void insert(std::uint64_t key) {
    if (capacity_ == 0) {
      return;
    }
    const auto it = pos_.find(key);
    if (it != pos_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.push_front(key);
    pos_[key] = order_.begin();
    while (pos_.size() > capacity_) {
      pos_.erase(order_.back());
      order_.pop_back();
    }
  }

 private:
  std::size_t capacity_;
  std::list<std::uint64_t> order_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> pos_;
};

class PageCacheProperty : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(PageCacheProperty, AgreesWithReferenceLru) {
  const auto [capacity_pages, seed] = GetParam();
  hostk::PageCache cache(static_cast<std::uint64_t>(capacity_pages) *
                         hostk::PageCache::kPageSize);
  ReferenceLru reference(static_cast<std::size_t>(capacity_pages));
  sim::Rng rng(static_cast<std::uint64_t>(seed));
  for (int op = 0; op < 20'000; ++op) {
    const std::uint64_t page =
        static_cast<std::uint64_t>(rng.uniform_int(0, 3 * capacity_pages));
    const hostk::PageKey key{1, page};
    if (rng.chance(0.5)) {
      EXPECT_EQ(cache.access(key), reference.access(page)) << "op " << op;
    } else {
      cache.insert(key);
      reference.insert(page);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CapacitiesAndSeeds, PageCacheProperty,
                         ::testing::Combine(::testing::Values(4, 64, 512),
                                            ::testing::Values(1, 2)));

// --- SampleSet percentile vs sorted reference -------------------------------

class PercentileProperty : public ::testing::TestWithParam<int> {};

TEST_P(PercentileProperty, BoundedByMinMaxAndMonotonic) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  stats::SampleSet samples;
  for (int i = 0; i < 2'000; ++i) {
    samples.add(rng.lognormal(2.0, 1.0));
  }
  std::vector<double> sorted = samples.values();
  std::sort(sorted.begin(), sorted.end());
  double prev = -1.0;
  for (double p = 0; p <= 100; p += 2.5) {
    const double v = samples.percentile(p);
    EXPECT_GE(v, sorted.front());
    EXPECT_LE(v, sorted.back());
    EXPECT_GE(v, prev);
    prev = v;
  }
  // Exact agreement at the extremes and the median rank.
  EXPECT_DOUBLE_EQ(samples.percentile(0), sorted.front());
  EXPECT_DOUBLE_EQ(samples.percentile(100), sorted.back());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileProperty, ::testing::Values(1, 2, 3));

// --- Boot timeline composition laws ------------------------------------------

TEST(BootCompositionProperty, AppendPreservesMeanAdditivity) {
  sim::Rng rng(5);
  core::BootTimeline a, b;
  for (int i = 0; i < 6; ++i) {
    a.stage("a" + std::to_string(i),
            sim::DurationDist::lognormal(sim::millis(1 + i), 0.1));
    b.stage("b" + std::to_string(i),
            sim::DurationDist::lognormal(sim::millis(2 + i), 0.1));
  }
  const sim::Nanos mean_a = a.mean_total();
  const sim::Nanos mean_b = b.mean_total();
  core::BootTimeline combined = a;
  combined.append(b);
  EXPECT_EQ(combined.mean_total(), mean_a + mean_b);
  // A sampled run's total equals the sum of its stage samples.
  const auto result = combined.run(rng);
  sim::Nanos sum = 0;
  for (const auto& s : result.stages) {
    sum += s.duration;
  }
  EXPECT_EQ(sum, result.total);
  EXPECT_EQ(result.stages.size(), 12u);
}

TEST(BootCompositionProperty, SampledMeanConvergesToAnalyticMean) {
  sim::Rng rng(6);
  core::BootTimeline t;
  t.stage("x", sim::DurationDist::lognormal(sim::millis(40), 0.2));
  t.stage("y", sim::DurationDist::constant(sim::millis(10)));
  double sum = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(t.run(rng).total);
  }
  EXPECT_NEAR(sum / n / static_cast<double>(t.mean_total()), 1.0, 0.02);
}

// --- Summary/SampleSet agreement ---------------------------------------------

TEST(StatsAgreementProperty, SummaryMatchesSampleSet) {
  sim::Rng rng(7);
  stats::SampleSet samples;
  stats::Summary summary;
  for (int i = 0; i < 5'000; ++i) {
    const double v = rng.normal(100.0, 15.0);
    samples.add(v);
    summary.add(v);
  }
  const auto from_samples = samples.summary();
  EXPECT_NEAR(from_samples.mean(), summary.mean(), 1e-9);
  EXPECT_NEAR(from_samples.stddev(), summary.stddev(), 1e-9);
  EXPECT_DOUBLE_EQ(from_samples.min(), summary.min());
  EXPECT_DOUBLE_EQ(from_samples.max(), summary.max());
}

// --- Zipfian distribution law -------------------------------------------------

TEST(ZipfianProperty, FrequencyFollowsPowerLaw) {
  sim::Rng rng(8);
  sim::ZipfianGenerator zipf(1'000, 0.99);
  std::map<std::uint64_t, int> counts;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    ++counts[zipf.next(rng)];
  }
  // Rank-frequency: item 0 much hotter than item 9, which is much hotter
  // than item 99 (roughly 1/rank^theta).
  EXPECT_GT(counts[0], counts[9] * 4);
  EXPECT_GT(counts[9], counts[99] * 4);
  // All mass within the domain.
  int total = 0;
  for (const auto& [k, c] : counts) {
    EXPECT_LT(k, 1'000u);
    total += c;
  }
  EXPECT_EQ(total, n);
}

}  // namespace
