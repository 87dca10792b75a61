// Retained-sample statistics: percentiles and empirical CDFs.
//
// The paper reports mean +- stddev bar charts for most figures, p90 for the
// netperf latency figure, and CDFs over 300 startups for the boot figures.
// SampleSet supports all three from one container.
//
// A set keeps its samples in arrival order and no sorted copy of them. A
// percentile query selects its order statistics on one temporary copy of
// the samples (linear time): a report that asks a set for two or three
// ranks pays one copy per percentiles() call and keeps nothing after it.
#pragma once

#include <array>
#include <cstddef>
#include <utility>
#include <vector>

#include "stats/summary.h"

namespace stats {

/// A point on an empirical CDF: (value, cumulative fraction in [0,1]).
struct CdfPoint {
  double value;
  double fraction;
};

/// Collects raw observations and serves order statistics.
class SampleSet {
 public:
  SampleSet() = default;
  explicit SampleSet(std::vector<double> values);

  void add(double x) { values_.push_back(x); }
  void reserve(std::size_t n) { values_.reserve(n); }

  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const std::vector<double>& values() const { return values_; }

  /// Linear-interpolated percentile, p in [0, 100]: the value at rank
  /// p / 100 * (size - 1) of the sorted samples, interpolated between its
  /// two neighbouring order statistics. Throws when empty or p is out of
  /// range.
  double percentile(double p) const { return percentiles({p})[0]; }

  /// percentile() at each of `ps`, answered from one copy of the samples,
  /// in the order asked: `auto [p50, p99] = s.percentiles({50, 99});`.
  template <std::size_t N>
  std::array<double, N> percentiles(const double (&ps)[N]) const {
    std::array<double, N> out{};
    select(ps, N, out.data());
    return out;
  }

  double median() const { return percentile(50.0); }

  /// Streaming summary over the same observations.
  Summary summary() const;

  /// Empirical CDF with at most `max_points` points (down-sampled evenly;
  /// always includes the minimum and maximum observation). Sorts a copy
  /// of the samples on every call.
  std::vector<CdfPoint> cdf(std::size_t max_points = 100) const;

  /// Fraction of samples <= x.
  double fraction_below(double x) const;

 private:
  /// Writes the percentile at ps[i] to out[i] for each of the `count`
  /// ranks.
  void select(const double* ps, std::size_t count, double* out) const;

  std::vector<double> values_;
};

}  // namespace stats
