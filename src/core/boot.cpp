#include "core/boot.h"

namespace core {

BootTimeline& BootTimeline::stage(std::string name, sim::DurationDist duration) {
  stages_.push_back(BootStage{std::move(name), duration});
  return *this;
}

BootTimeline& BootTimeline::append(const BootTimeline& other) {
  for (const auto& s : other.stages_) {
    stages_.push_back(s);
  }
  return *this;
}

BootResult BootTimeline::run(sim::Rng& rng) const {
  BootResult result;
  result.stages.reserve(stages_.size());
  for (const auto& s : stages_) {
    const sim::Nanos d = s.duration.sample(rng);
    result.stages.push_back({s.name, d});
    result.total += d;
  }
  return result;
}

sim::Nanos BootTimeline::sample_total(sim::Rng& rng) const {
  sim::Nanos total = 0;
  for (const auto& s : stages_) {
    total += s.duration.sample(rng);
  }
  return total;
}

void BootTimeline::skip_total(sim::Rng& rng) const {
  for (const auto& s : stages_) {
    s.duration.skip(rng);
  }
}

sim::Nanos BootTimeline::mean_total() const {
  sim::Nanos total = 0;
  for (const auto& s : stages_) {
    total += s.duration.mean();
  }
  return total;
}

}  // namespace core
