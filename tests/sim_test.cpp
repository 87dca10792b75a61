// Tests for the sim module: virtual clock, RNG determinism, distributions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <set>
#include <stdexcept>
#include <vector>

#include "sim/clock.h"
#include "sim/distribution.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace {

using sim::Clock;
using sim::DurationDist;
using sim::Nanos;
using sim::Rng;
using sim::ZipfianGenerator;

TEST(TimeTest, UnitConstructors) {
  EXPECT_EQ(sim::micros(1), 1'000);
  EXPECT_EQ(sim::millis(1), 1'000'000);
  EXPECT_EQ(sim::seconds(1), 1'000'000'000);
  EXPECT_EQ(sim::millis(0.5), 500'000);
}

TEST(TimeTest, UnitExtractors) {
  EXPECT_DOUBLE_EQ(sim::to_millis(sim::millis(42)), 42.0);
  EXPECT_DOUBLE_EQ(sim::to_seconds(sim::seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(sim::to_micros(1500), 1.5);
}

TEST(TimeTest, FormatPicksUnit) {
  EXPECT_EQ(sim::format_duration(500), "500 ns");
  EXPECT_EQ(sim::format_duration(sim::micros(1.5)), "1.500 us");
  EXPECT_EQ(sim::format_duration(sim::millis(20)), "20.000 ms");
  EXPECT_EQ(sim::format_duration(sim::seconds(1.25)), "1.250 s");
}

TEST(ClockTest, StartsAtZeroAndAdvances) {
  Clock clock;
  EXPECT_EQ(clock.now(), 0);
  clock.advance(100);
  clock.advance(50);
  EXPECT_EQ(clock.now(), 150);
}

TEST(ClockTest, RejectsNegativeAdvance) {
  Clock clock;
  EXPECT_THROW(clock.advance(-1), std::invalid_argument);
}

TEST(ClockTest, AdvanceToAbsoluteTime) {
  Clock clock;
  clock.advance_to(1'000);
  EXPECT_EQ(clock.now(), 1'000);
  EXPECT_THROW(clock.advance_to(500), std::invalid_argument);
}

TEST(ClockTest, ZeroCostIsAllowed) {
  Clock clock;
  clock.advance(0);
  EXPECT_EQ(clock.now(), 0);
}

TEST(ClockTest, AdvancePastTheLargestTimeThrows) {
  constexpr Nanos kMax = std::numeric_limits<Nanos>::max();
  Clock clock(sim::millis(1));
  clock.advance(kMax - sim::millis(1));
  EXPECT_EQ(clock.now(), kMax);
  EXPECT_THROW(clock.advance(1), std::overflow_error);
  EXPECT_EQ(clock.now(), kMax);
  clock.advance(0);
  EXPECT_EQ(clock.now(), kMax);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += (a.next_u64() == b.next_u64());
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1'000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntRejectsInvertedRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(5, 4), std::invalid_argument);
}

TEST(RngTest, NormalMomentsRoughlyMatch) {
  Rng rng(123);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(55);
  double sum = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    sum += rng.exponential(0.5);  // mean 2
  }
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(RngTest, ExponentialRejectsNonPositiveLambda) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(RngTest, ChanceProbability) {
  Rng rng(31);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    hits += rng.chance(0.25);
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(RngTest, ForkedStreamsAreIndependent) {
  Rng parent(99);
  Rng child = parent.fork();
  // Child must not replay the parent's stream.
  Rng parent_copy(99);
  parent_copy.next_u64();  // align with parent post-fork state
  EXPECT_NE(child.next_u64(), parent_copy.next_u64());
}

TEST(RngTest, StaysSixWords) {
  // Every tenant and tenant seed holds one Rng: the Box-Muller cache's
  // two forms share two doubles, with no flag word beside them.
  EXPECT_EQ(sizeof(Rng), 48u);
}

TEST(ZipfianTest, HotKeysDominate) {
  Rng rng(2024);
  ZipfianGenerator zipf(10'000, 0.99);
  int in_top_100 = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    if (zipf.next(rng) < 100) {
      ++in_top_100;
    }
  }
  // With theta=0.99 over 10k items the top 1% draws well over a third of
  // accesses; uniform would give 1%.
  EXPECT_GT(static_cast<double>(in_top_100) / n, 0.35);
}

TEST(ZipfianTest, SamplesWithinRange) {
  Rng rng(5);
  ZipfianGenerator zipf(100, 0.99);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(zipf.next(rng), 100u);
  }
}

TEST(ZipfianTest, RejectsEmptyDomain) {
  EXPECT_THROW(ZipfianGenerator(0), std::invalid_argument);
}

TEST(DurationDistTest, ConstantAlwaysSame) {
  Rng rng(3);
  const auto d = DurationDist::constant(sim::micros(5));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(d.sample(rng), sim::micros(5));
  }
  EXPECT_EQ(d.mean(), sim::micros(5));
}

TEST(DurationDistTest, LognormalMedianParameterization) {
  Rng rng(17);
  const auto d = DurationDist::lognormal(sim::millis(100), 0.1);
  std::vector<Nanos> samples;
  for (int i = 0; i < 20'000; ++i) {
    samples.push_back(d.sample(rng));
  }
  std::sort(samples.begin(), samples.end());
  const double median = static_cast<double>(samples[samples.size() / 2]);
  EXPECT_NEAR(median / sim::millis(100), 1.0, 0.02);
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

TEST(DurationDistTest, SkipConsumesTheDrawsOfSample) {
  // skip() must leave the stream sample() leaves, cached Box-Muller
  // variate included: the next normal() bit for bit, then next_u64().
  // Streams start empty, holding a drawn pair's finished variate, or
  // holding a skipped pair's raw draws.
  const DurationDist dists[] = {
      DurationDist::constant(sim::micros(5)),
      DurationDist::lognormal(sim::micros(5), 0.2),
  };
  for (int start = 0; start < 3; ++start) {
    for (std::size_t k = 0; k < std::size(dists); ++k) {
      for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        Rng sampled(seed);
        if (start == 1) {
          sampled.normal();
        } else if (start == 2) {
          sampled.skip_normal();
        }
        Rng skipped = sampled;
        dists[k].sample(sampled);
        dists[k].skip(skipped);
        EXPECT_EQ(bits_of(sampled.normal()), bits_of(skipped.normal()))
            << "dist " << k << " start " << start << " seed " << seed;
        EXPECT_EQ(sampled.next_u64(), skipped.next_u64())
            << "dist " << k << " start " << start << " seed " << seed;
      }
    }
  }
}

TEST(DurationDistTest, InvalidParametersThrow) {
  EXPECT_THROW(DurationDist::constant(-1), std::invalid_argument);
  EXPECT_THROW(DurationDist::lognormal(0, 0.1), std::invalid_argument);
}

}  // namespace
