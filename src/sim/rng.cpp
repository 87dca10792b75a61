#include "sim/rng.h"

#include <cmath>
#include <stdexcept>

namespace sim {
namespace {

constexpr double kPi = 3.14159265358979323846;

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

double zeta(std::uint64_t n, double theta) {
  double sum = 0.0;
  for (std::uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) {
    word = splitmix64(s);
  }
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * next_double(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) {
    throw std::invalid_argument("Rng::uniform_int: lo > hi");
  }
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_u64() % span);
}

double Rng::next_nonzero_double() {
  double u = next_double();
  while (u <= 1e-300) {
    u = next_double();
  }
  return u;
}

double Rng::normal() {
  if (cached_u1_ > 0.0) {
    // The sine variate of a skipped pair, finished now.
    const double r = std::sqrt(-2.0 * std::log(cached_u1_));
    const double theta = 2.0 * kPi * cached_;
    cached_u1_ = 0.0;
    return r * std::sin(theta);
  }
  if (cached_u1_ < 0.0) {
    cached_u1_ = 0.0;
    return cached_;
  }
  const double u1 = next_nonzero_double();
  const double u2 = next_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * kPi * u2;
  cached_u1_ = -1.0;
  cached_ = r * std::sin(theta);
  return r * std::cos(theta);
}

void Rng::skip_normal() {
  if (cached_u1_ != 0.0) {
    cached_u1_ = 0.0;
  } else {
    cached_u1_ = next_nonzero_double();
    cached_ = next_double();
  }
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::lognormal(double mu, double sigma) { return std::exp(mu + sigma * normal()); }

double Rng::exponential(double lambda) {
  if (lambda <= 0.0) {
    throw std::invalid_argument("Rng::exponential: lambda must be positive");
  }
  return -std::log(next_nonzero_double()) / lambda;
}

bool Rng::chance(double p) { return next_double() < p; }

Rng Rng::fork() { return Rng(next_u64()); }

ZipfianGenerator::ZipfianGenerator(std::uint64_t n, double theta) : n_(n), theta_(theta) {
  if (n == 0) {
    throw std::invalid_argument("ZipfianGenerator: n must be positive");
  }
  zetan_ = zeta(n, theta);
  zeta2theta_ = zeta(2, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2theta_ / zetan_);
}

std::uint64_t ZipfianGenerator::next(Rng& rng) const {
  const double u = rng.next_double();
  const double uz = u * zetan_;
  if (uz < 1.0) {
    return 0;
  }
  if (uz < 1.0 + std::pow(0.5, theta_)) {
    return 1;
  }
  const double raw =
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_);
  std::uint64_t item = static_cast<std::uint64_t>(raw);
  if (item >= n_) {
    item = n_ - 1;
  }
  return item;
}

}  // namespace sim
