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

DurationDist DurationDist::lognormal(Nanos median, double sigma) {
  if (median <= 0 || sigma < 0) {
    throw std::invalid_argument("DurationDist::lognormal: invalid parameter");
  }
  return DurationDist(LogNormal{std::log(static_cast<double>(median)), sigma});
}

Nanos DurationDist::sample(Rng& rng) const {
  return std::visit(
      [&rng](const auto& d) -> Nanos {
        using T = std::decay_t<decltype(d)>;
        if constexpr (std::is_same_v<T, Constant>) {
          return d.value;
        } else {
          return static_cast<Nanos>(rng.lognormal(d.mu, d.sigma));
        }
      },
      impl_);
}

void DurationDist::skip(Rng& rng) const {
  if (std::holds_alternative<LogNormal>(impl_)) {
    rng.skip_normal();
  }
}

Nanos DurationDist::mean() const {
  return std::visit(
      [](const auto& d) -> Nanos {
        using T = std::decay_t<decltype(d)>;
        if constexpr (std::is_same_v<T, Constant>) {
          return d.value;
        } else {
          return static_cast<Nanos>(std::exp(d.mu + d.sigma * d.sigma / 2.0));
        }
      },
      impl_);
}

}  // namespace sim
