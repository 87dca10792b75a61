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

  /// Standard normal via Box-Muller: each pair of draws yields two
  /// variates, the cosine one now and the sine one (cached) next call.
  double normal();

  /// Consume exactly the draws normal() would, without computing the
  /// variate: the same next_u64() calls, the u1 <= 1e-300 retry included,
  /// and a cached variate left exactly when normal() would leave one (the
  /// next normal() returns it bit for bit). Trace-only paths use it to
  /// keep a stream where a sampled path would leave it.
  void skip_normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Log-normal parameterized by the *underlying* normal's mu/sigma.
  double lognormal(double mu, double sigma);

  /// Exponential with the given rate (lambda). Mean is 1/lambda.
  double exponential(double lambda);

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p);

  /// Derive an independent child generator (for per-actor streams).
  Rng fork();

 private:
  /// Uniform double in (1e-300, 1): redraws the values log() cannot take.
  double next_nonzero_double();

  std::array<std::uint64_t, 4> state_;
  // The cached second variate of a Box-Muller pair, in one of two forms.
  // After normal(), cached_u1_ < 0 and cached_ is the finished variate.
  // After skip_normal(), the pair is kept raw, u1 in cached_u1_ and u2 in
  // cached_, and the next normal() finishes it: no log/sqrt/sin is paid
  // unless the variate is read. A drawn u1 is never <= 1e-300, so
  // cached_u1_ == 0 means nothing is cached (no flag: sizeof(Rng) == 48).
  double cached_u1_ = 0.0;
  double cached_ = 0.0;
};

/// Zipfian sampler over [0, n) with skew theta (YCSB uses theta = 0.99).
/// Uses the Gray et al. rejection-inversion-free formulation that YCSB's
/// own generator implements, so key popularity matches the paper's workload.
class ZipfianGenerator {
 public:
  ZipfianGenerator(std::uint64_t n, double theta = 0.99);

  /// Sample an item index in [0, n). Hot items are small indices. Draws
  /// one double from `rng` and mutates nothing else: the constants (zeta(n)
  /// among them) are computed once, at construction.
  std::uint64_t next(Rng& rng) const;

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
