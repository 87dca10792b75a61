// Parametric latency distributions used by the hardware and platform models.
//
// Cost models describe stochastic costs (device service times, boot-stage
// durations) as small value-type distributions so that configurations stay
// declarative and testable.
#pragma once

#include <algorithm>
#include <variant>

#include "sim/rng.h"
#include "sim/time.h"

namespace sim {

/// A duration distribution. The `floor` of every sample is zero: hardware
/// never completes work in negative time, so samplers clamp.
class DurationDist {
 public:
  /// Degenerate distribution: always `value`.
  static DurationDist constant(Nanos value);

  /// Normal(mean, stddev), clamped at zero.
  static DurationDist normal(Nanos mean, Nanos stddev);

  /// Log-normal parameterized by its *resulting* median and a multiplicative
  /// spread sigma (sigma of the underlying normal). Median-parameterization
  /// keeps configs readable: `lognormal(millis(100), 0.08)` has median 100ms.
  static DurationDist lognormal(Nanos median, double sigma);

  /// Exponential with the given mean.
  static DurationDist exponential(Nanos mean);

  /// Draw one sample.
  Nanos sample(Rng& rng) const;

  /// Consume exactly the RNG draws sample() would and compute nothing:
  /// trace-only paths keep a stream where a sampled path leaves it
  /// without paying for a value they would discard.
  void skip(Rng& rng) const;

  /// The distribution's theoretical mean (used by analytic summaries).
  Nanos mean() const;

 private:
  struct Constant {
    Nanos value;
  };
  struct Normal {
    Nanos mean;
    Nanos stddev;
  };
  struct LogNormal {
    double mu;
    double sigma;
  };
  struct Exponential {
    Nanos mean;
  };
  using Impl = std::variant<Constant, Normal, LogNormal, Exponential>;

  explicit DurationDist(Impl impl) : impl_(impl) {}

  Impl impl_;
};

}  // namespace sim
