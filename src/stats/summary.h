// Streaming summary statistics (Welford) used by all experiments.
#pragma once

#include <cstddef>
#include <limits>

namespace stats {

/// Single-pass mean/variance/min/max accumulator. Numerically stable
/// (Welford's algorithm).
class Summary {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }

  /// Coefficient of variation (stddev / mean); 0 when the mean is 0.
  double cv() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace stats
