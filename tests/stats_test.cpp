// Tests for the stats module: summaries, percentiles, CDFs, tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "stats/sample_set.h"
#include "stats/summary.h"
#include "stats/table.h"

namespace {

using stats::SampleSet;
using stats::Summary;
using stats::Table;

TEST(SummaryTest, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(SummaryTest, MeanAndStddev) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(v);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(SummaryTest, SingleSampleHasZeroVariance) {
  Summary s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(SummaryTest, CoefficientOfVariation) {
  Summary s;
  s.add(9.0);
  s.add(11.0);
  EXPECT_NEAR(s.cv(), std::sqrt(2.0) / 10.0, 1e-12);
}

TEST(SampleSetTest, PercentileInterpolates) {
  SampleSet s({10.0, 20.0, 30.0, 40.0});
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 25.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
}

TEST(SampleSetTest, PercentileSingleElement) {
  SampleSet s({42.0});
  EXPECT_DOUBLE_EQ(s.percentile(90), 42.0);
}

TEST(SampleSetTest, PercentileErrors) {
  SampleSet empty;
  EXPECT_THROW(empty.percentile(50), std::logic_error);
  SampleSet s({1.0});
  EXPECT_THROW(s.percentile(-1), std::invalid_argument);
  EXPECT_THROW(s.percentile(101), std::invalid_argument);
}

TEST(SampleSetTest, NanPercentileIsRejected) {
  SampleSet s({1.0, 2.0, 3.0});
  EXPECT_THROW(s.percentile(std::nan("")), std::invalid_argument);
  EXPECT_THROW(s.percentiles({50, std::nan("")}), std::invalid_argument);
}

TEST(SampleSetTest, AddInvalidatesSortCache) {
  SampleSet s({5.0, 1.0});
  EXPECT_DOUBLE_EQ(s.percentile(100), 5.0);
  s.add(9.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 9.0);
}

TEST(SampleSetTest, CdfIsMonotonic) {
  SampleSet s;
  for (int i = 100; i > 0; --i) {
    s.add(static_cast<double>(i % 17));
  }
  const auto cdf = s.cdf(20);
  ASSERT_FALSE(cdf.empty());
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].value, cdf[i - 1].value);
    EXPECT_GE(cdf[i].fraction, cdf[i - 1].fraction);
  }
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
}

TEST(SampleSetTest, CdfAlwaysIncludesTheMaximum) {
  // Regression: the old fixed-stride down-sampling dropped the maximum
  // whenever (n-1) % step != 0, then patched it back in by exceeding the
  // requested point budget. Sweep awkward (n, max_points) combinations.
  for (const std::size_t n : {1u, 2u, 3u, 7u, 10u, 11u, 100u, 300u, 1000u}) {
    for (const std::size_t max_points : {1u, 2u, 3u, 10u, 99u, 100u}) {
      SampleSet s;
      for (std::size_t i = 0; i < n; ++i) {
        s.add(static_cast<double>(i));
      }
      const auto cdf = s.cdf(max_points);
      ASSERT_FALSE(cdf.empty());
      ASSERT_LE(cdf.size(), max_points) << "n=" << n << " m=" << max_points;
      EXPECT_DOUBLE_EQ(cdf.back().value, static_cast<double>(n - 1))
          << "n=" << n << " m=" << max_points;
      EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0)
          << "n=" << n << " m=" << max_points;
      if (max_points >= 2) {
        EXPECT_DOUBLE_EQ(cdf.front().value, 0.0)
            << "n=" << n << " m=" << max_points;
      }
      for (std::size_t i = 1; i < cdf.size(); ++i) {
        EXPECT_GT(cdf[i].fraction, cdf[i - 1].fraction);  // no duplicates
      }
    }
  }
}

TEST(SampleSetTest, FractionBelow) {
  SampleSet s({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.fraction_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.fraction_below(2.0), 0.5);
  EXPECT_DOUBLE_EQ(s.fraction_below(10.0), 1.0);
}

TEST(SampleSetTest, SelectionMatchesSortedReference) {
  // percentile() and percentiles() select their order statistics instead
  // of sorting. Each answer must equal, bit for bit, interpolating on a
  // sorted copy: rank p/100 * (n - 1), v[floor] + frac * (v[ceil] -
  // v[floor]). Half the samples come from a small pool, so ties are heavy,
  // and both halves reach below zero.
  const auto reference = [](const std::vector<double>& sorted, double p) {
    if (sorted.size() == 1) {
      return sorted.front();
    }
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = static_cast<std::size_t>(std::ceil(rank));
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  };
  std::mt19937_64 rng(36);
  std::uniform_real_distribution<double> wide(-100.0, 100.0);
  std::uniform_real_distribution<double> rank(0.0, 100.0);
  for (const std::size_t n : {1u, 2u, 3u, 1'000u, 100'000u}) {
    const std::uint64_t pool = n / 20 + 2;
    SampleSet s;
    for (std::size_t i = 0; i < n; ++i) {
      s.add(rng() % 2 == 0
                ? 0.5 * (static_cast<double>(rng() % pool) -
                         static_cast<double>(pool / 2))
                : wide(rng));
    }
    std::vector<double> sorted = s.values();
    std::sort(sorted.begin(), sorted.end());

    const double fixed[] = {0, 0.1, 1, 25, 50, 90, 99, 99.9, 100};
    for (const double p : fixed) {
      EXPECT_EQ(s.percentile(p), reference(sorted, p)) << "n=" << n
                                                        << " p=" << p;
    }
    const auto all = s.percentiles({0, 0.1, 1, 25, 50, 90, 99, 99.9, 100});
    for (std::size_t i = 0; i < all.size(); ++i) {
      EXPECT_EQ(all[i], reference(sorted, fixed[i])) << "n=" << n
                                                     << " p=" << fixed[i];
    }
    // 200 random ranks: one at a time, and four per percentiles() call in
    // the order drawn.
    for (int k = 0; k < 50; ++k) {
      const double a = rank(rng), b = rank(rng), c = rank(rng), d = rank(rng);
      const auto got = s.percentiles({a, b, c, d});
      const double ps[] = {a, b, c, d};
      for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(got[i], reference(sorted, ps[i])) << "n=" << n
                                                    << " p=" << ps[i];
        EXPECT_EQ(s.percentile(ps[i]), reference(sorted, ps[i]))
            << "n=" << n << " p=" << ps[i];
      }
    }

    // fraction_below at samples, between neighbouring samples and outside
    // them, against upper_bound on the sorted copy.
    std::vector<double> xs = {sorted.front() - 1.0, sorted.back() + 1.0};
    for (int k = 0; k < 20; ++k) {
      const std::size_t i = rng() % n;
      xs.push_back(sorted[i]);
      if (i + 1 < n) {
        xs.push_back(sorted[i] + 0.5 * (sorted[i + 1] - sorted[i]));
      }
    }
    for (const double x : xs) {
      const auto at_most = std::upper_bound(sorted.begin(), sorted.end(), x) -
                           sorted.begin();
      EXPECT_EQ(s.fraction_below(x),
                static_cast<double>(at_most) / static_cast<double>(n))
          << "n=" << n << " x=" << x;
    }
  }
}

TEST(SampleSetTest, SummaryMatchesValues) {
  SampleSet s({1.0, 2.0, 3.0});
  const auto sum = s.summary();
  EXPECT_EQ(sum.count(), 3u);
  EXPECT_DOUBLE_EQ(sum.mean(), 2.0);
}

TEST(TableTest, TextRenderingAligns) {
  Table t({"platform", "ms"});
  t.add_row({"docker", "101.5"});
  t.add_row({"kata-containers", "612.0"});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("platform"), std::string::npos);
  EXPECT_NE(text.find("kata-containers"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(TableTest, ArityMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TableTest, EmptyHeadersThrow) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(TableTest, CsvEscaping) {
  Table t({"name", "note"});
  t.add_row({"a,b", "say \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
  EXPECT_EQ(Table::mean_pm_std(10.0, 1.5, 1), "10.0 +- 1.5");
}

}  // namespace
