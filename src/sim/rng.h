// Deterministic pseudo-random number generation for the simulator.
//
// Every experiment seeds its own Rng so figures are bit-for-bit reproducible
// across runs and machines. The generator is xoshiro256++ (public domain,
// Blackman & Vigna), seeded through splitmix64 so that small seeds still
// produce well-mixed state.
#pragma once

#include <array>
#include <cstdint>

namespace sim {

/// xoshiro256++ generator with convenience samplers for the distributions
/// the cost models need. Not thread safe; use one instance per actor.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x1505'CAFE'F00D'5EEDull);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (cached second variate).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Log-normal parameterized by the *underlying* normal's mu/sigma.
  double lognormal(double mu, double sigma);

  /// Exponential with the given rate (lambda). Mean is 1/lambda.
  double exponential(double lambda);

  /// Pareto (heavy tail) with scale x_m > 0 and shape alpha > 0.
  double pareto(double scale, double shape);

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p);

  /// Derive an independent child generator (for per-actor streams).
  Rng fork();

 private:
  std::array<std::uint64_t, 4> state_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Zipfian sampler over [0, n) with skew theta (YCSB uses theta = 0.99).
/// Uses the Gray et al. rejection-inversion-free formulation that YCSB's
/// own generator implements, so key popularity matches the paper's workload.
class ZipfianGenerator {
 public:
  ZipfianGenerator(std::uint64_t n, double theta = 0.99);

  /// Sample an item index in [0, n). Hot items are small indices.
  std::uint64_t next(Rng& rng);

  double theta() const { return theta_; }

 private:
  std::uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2theta_;
};

}  // namespace sim
