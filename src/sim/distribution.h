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

/// A duration distribution: a constant or a log-normal, so no sample is
/// negative.
class DurationDist {
 public:
  /// Degenerate distribution: always `value`.
  static DurationDist constant(Nanos value);

  /// Log-normal parameterized by its *resulting* median and a multiplicative
  /// spread sigma (sigma of the underlying normal). Median-parameterization
  /// keeps configs readable: `lognormal(millis(100), 0.08)` has median 100ms.
  static DurationDist lognormal(Nanos median, double sigma);

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
  struct LogNormal {
    double mu;
    double sigma;
  };
  using Impl = std::variant<Constant, LogNormal>;

  explicit DurationDist(Impl impl) : impl_(impl) {}

  Impl impl_;
};

}  // namespace sim
