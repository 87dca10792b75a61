#include "stats/summary.h"

#include <algorithm>
#include <cmath>

namespace stats {

void Summary::add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double Summary::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double Summary::stddev() const { return std::sqrt(variance()); }

double Summary::cv() const {
  if (count_ == 0 || mean_ == 0.0) {
    return 0.0;
  }
  return stddev() / std::abs(mean_);
}

}  // namespace stats
