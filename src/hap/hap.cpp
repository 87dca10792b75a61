#include "hap/hap.h"

#include "hap/epss.h"

namespace hap {

double extended_hap(const hostk::Ftrace& ftrace) {
  const EpssModel epss;
  double sum = 0.0;
  for (const auto& [fn, count] : ftrace.counts()) {
    sum += epss.score(ftrace.registry().function(fn));
  }
  return sum;
}

HapExperiment::HapExperiment(int workload_rounds)
    : workload_rounds_(workload_rounds) {}

HapScore HapExperiment::measure(platforms::Platform& platform,
                                sim::Rng& rng) const {
  using platforms::WorkloadClass;
  auto& ftrace = platform.host().kernel().ftrace();
  ftrace.start();
  for (int round = 0; round < workload_rounds_; ++round) {
    for (const auto w : {WorkloadClass::kCpu, WorkloadClass::kMemory,
                         WorkloadClass::kIo, WorkloadClass::kNetwork}) {
      platform.record_workload(w, rng);
    }
  }
  // Start the platform and shut it down (the paper's fifth trace).
  platform.record_workload(WorkloadClass::kStartup, rng);
  ftrace.stop();

  HapScore score;
  score.platform = platform.name();
  score.distinct_functions = ftrace.distinct_functions();
  score.total_invocations = ftrace.total_invocations();
  score.hap_breadth = static_cast<double>(score.distinct_functions);
  score.extended_hap = extended_hap(ftrace);
  score.by_subsystem = ftrace.distinct_by_subsystem();
  return score;
}

std::vector<HapScore> HapExperiment::measure_all(
    std::vector<std::unique_ptr<platforms::Platform>>& lineup,
    sim::Rng& rng) const {
  std::vector<HapScore> scores;
  scores.reserve(lineup.size());
  for (auto& platform : lineup) {
    scores.push_back(measure(*platform, rng));
  }
  return scores;
}

}  // namespace hap
