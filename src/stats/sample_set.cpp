#include "stats/sample_set.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace stats {

SampleSet::SampleSet(std::vector<double> values) : values_(std::move(values)) {}

void SampleSet::select(const double* ps, std::size_t count,
                       double* out) const {
  if (values_.empty()) {
    throw std::logic_error("SampleSet::percentile: empty sample set");
  }
  for (std::size_t i = 0; i < count; ++i) {
    // Written so that a NaN p fails too: its rank would index nowhere.
    if (!(ps[i] >= 0.0 && ps[i] <= 100.0)) {
      throw std::invalid_argument("SampleSet::percentile: p out of [0,100]");
    }
  }
  const std::size_t n = values_.size();
  if (n == 1) {
    std::fill(out, out + count, values_.front());
    return;
  }
  // Answer the ranks in ascending order: each selection then searches only
  // the part of the copy above the order statistic placed before it.
  std::vector<std::size_t> order(count);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [ps](std::size_t a, std::size_t b) { return ps[a] < ps[b]; });
  std::vector<double> v = values_;
  std::size_t unplaced = 0;  // v[unplaced, n) is not yet partitioned
  for (const std::size_t i : order) {
    const double rank = ps[i] / 100.0 * static_cast<double>(n - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
    const double frac = rank - static_cast<double>(lo);
    if (lo >= unplaced) {
      std::nth_element(v.begin() + static_cast<std::ptrdiff_t>(unplaced),
                       v.begin() + static_cast<std::ptrdiff_t>(lo), v.end());
      unplaced = lo + 1;
    }
    // Everything above position lo is >= v[lo], so the next order
    // statistic is the smallest of it.
    const double below = v[lo];
    const double above =
        hi == lo ? below
                 : *std::min_element(
                       v.begin() + static_cast<std::ptrdiff_t>(lo + 1),
                       v.end());
    out[i] = below + frac * (above - below);
  }
}

Summary SampleSet::summary() const {
  Summary s;
  for (double v : values_) {
    s.add(v);
  }
  return s;
}

std::vector<CdfPoint> SampleSet::cdf(std::size_t max_points) const {
  std::vector<CdfPoint> points;
  if (values_.empty() || max_points == 0) {
    return points;
  }
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  const std::size_t m = std::min(n, max_points);
  points.reserve(m);
  if (m == 1) {
    // A single point can only honor the "maximum is included" promise.
    points.push_back({sorted.back(), 1.0});
    return points;
  }
  // Indices spread evenly over [0, n-1]; k=0 hits the minimum and k=m-1
  // the maximum, so neither extreme is ever dropped and the point count
  // never exceeds max_points. (The previous fixed-stride loop missed the
  // maximum whenever (n-1) % step != 0 and then over-ran the budget
  // appending it back.)
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t i = k * (n - 1) / (m - 1);
    points.push_back(
        {sorted[i], static_cast<double>(i + 1) / static_cast<double>(n)});
  }
  return points;
}

double SampleSet::fraction_below(double x) const {
  if (values_.empty()) {
    return 0.0;
  }
  // The samples upper_bound(x) would step over in a sorted copy: every one
  // that x is not below.
  const auto at_most = std::count_if(values_.begin(), values_.end(),
                                     [x](double v) { return !(x < v); });
  return static_cast<double>(at_most) / static_cast<double>(values_.size());
}

}  // namespace stats
