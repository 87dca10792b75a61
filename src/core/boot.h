// Boot-timeline framework.
//
// Every platform's startup is modeled as an ordered list of named stages
// with stochastic durations. The startup experiments (Figures 13-15) run a
// timeline 300 times and plot the CDF of end-to-end totals; stage-level
// results also power the examples' cold-start breakdowns.
#pragma once

#include <string>
#include <vector>

#include "sim/distribution.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace core {

/// One named phase of a platform's boot sequence.
struct BootStage {
  std::string name;
  sim::DurationDist duration;
};

/// The sampled result of one boot.
struct BootResult {
  struct StageSample {
    std::string name;
    sim::Nanos duration;
  };
  std::vector<StageSample> stages;
  sim::Nanos total = 0;
};

/// An ordered, composable boot sequence.
class BootTimeline {
 public:
  BootTimeline() = default;

  /// Append one stage.
  BootTimeline& stage(std::string name, sim::DurationDist duration);

  /// Append all stages of another timeline (composition of subsystems).
  BootTimeline& append(const BootTimeline& other);

  /// Sample the whole sequence once.
  BootResult run(sim::Rng& rng) const;

  /// Sample the whole sequence once but return only the end-to-end total:
  /// identical RNG draws to run() without materializing per-stage samples
  /// (no string copies) — the fleet engine's per-boot fast path.
  sim::Nanos sample_total(sim::Rng& rng) const;

  /// Consume exactly the RNG draws sample_total() would and compute
  /// nothing: a boot trace keeps the stream where a real boot leaves it.
  void skip_total(sim::Rng& rng) const;

  /// Sum of stage means (analytic expectation of the total).
  sim::Nanos mean_total() const;

  const std::vector<BootStage>& stages() const { return stages_; }
  bool empty() const { return stages_.empty(); }

 private:
  std::vector<BootStage> stages_;
};

}  // namespace core
