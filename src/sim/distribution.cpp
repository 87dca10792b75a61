#include "sim/distribution.h"

#include <cmath>
#include <stdexcept>

namespace sim {

DurationDist DurationDist::constant(Nanos value) {
  if (value < 0) {
    throw std::invalid_argument("DurationDist::constant: negative duration");
  }
  return DurationDist(Constant{value});
}

DurationDist DurationDist::normal(Nanos mean, Nanos stddev) {
  if (mean < 0 || stddev < 0) {
    throw std::invalid_argument("DurationDist::normal: negative parameter");
  }
  return DurationDist(Normal{mean, stddev});
}

DurationDist DurationDist::lognormal(Nanos median, double sigma) {
  if (median <= 0 || sigma < 0) {
    throw std::invalid_argument("DurationDist::lognormal: invalid parameter");
  }
  return DurationDist(LogNormal{std::log(static_cast<double>(median)), sigma});
}

DurationDist DurationDist::exponential(Nanos mean) {
  if (mean <= 0) {
    throw std::invalid_argument("DurationDist::exponential: mean must be positive");
  }
  return DurationDist(Exponential{mean});
}

Nanos DurationDist::sample(Rng& rng) const {
  return std::visit(
      [&rng](const auto& d) -> Nanos {
        using T = std::decay_t<decltype(d)>;
        if constexpr (std::is_same_v<T, Constant>) {
          return d.value;
        } else if constexpr (std::is_same_v<T, Normal>) {
          const double v = rng.normal(static_cast<double>(d.mean),
                                      static_cast<double>(d.stddev));
          return v < 0.0 ? 0 : static_cast<Nanos>(v);
        } else if constexpr (std::is_same_v<T, LogNormal>) {
          return static_cast<Nanos>(rng.lognormal(d.mu, d.sigma));
        } else {
          return static_cast<Nanos>(
              rng.exponential(1.0 / static_cast<double>(d.mean)));
        }
      },
      impl_);
}

void DurationDist::skip(Rng& rng) const {
  std::visit(
      [&rng](const auto& d) {
        using T = std::decay_t<decltype(d)>;
        if constexpr (std::is_same_v<T, Normal> ||
                      std::is_same_v<T, LogNormal>) {
          rng.skip_normal();
        } else if constexpr (std::is_same_v<T, Exponential>) {
          rng.skip_exponential();
        }
      },
      impl_);
}

Nanos DurationDist::mean() const {
  return std::visit(
      [](const auto& d) -> Nanos {
        using T = std::decay_t<decltype(d)>;
        if constexpr (std::is_same_v<T, Constant>) {
          return d.value;
        } else if constexpr (std::is_same_v<T, Normal>) {
          return d.mean;
        } else if constexpr (std::is_same_v<T, LogNormal>) {
          return static_cast<Nanos>(std::exp(d.mu + d.sigma * d.sigma / 2.0));
        } else {
          return d.mean;
        }
      },
      impl_);
}

}  // namespace sim
