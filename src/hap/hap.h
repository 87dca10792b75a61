// The Horizontal Attack Profile experiment (Section 4, Figure 18).
//
// Methodology reproduced from the paper: run the Sysbench CPU, memory and
// I/O workloads, the iperf3 network benchmark, and a start+stop cycle on
// each platform while ftrace records every host kernel function invoked.
// The original HAP is the breadth (distinct functions); the paper's
// extension weighs each function by its EPSS exploitability score.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "hostk/ftrace.h"
#include "platforms/platform.h"

namespace hap {

struct HapScore {
  std::string platform;
  std::size_t distinct_functions = 0;
  std::uint64_t total_invocations = 0;
  /// Original HAP metric: breadth only.
  double hap_breadth = 0.0;
  /// Extended metric: sum of EPSS scores over distinct functions hit.
  double extended_hap = 0.0;
  /// Distinct functions per subsystem (for the breakdown table).
  std::unordered_map<hostk::Subsystem, std::size_t> by_subsystem;
};

/// The paper's extended HAP over one capture: the EPSS scores of the
/// distinct functions `ftrace` recorded, summed in its iteration order.
double extended_hap(const hostk::Ftrace& ftrace);

/// Runs the tracing protocol against one platform.
class HapExperiment {
 public:
  /// `workload_rounds` scales how long each traced workload runs (the
  /// paper traces full benchmark executions; breadth saturates quickly).
  explicit HapExperiment(int workload_rounds = 3);

  HapScore measure(platforms::Platform& platform, sim::Rng& rng) const;

  /// Convenience: measure a whole lineup.
  std::vector<HapScore> measure_all(
      std::vector<std::unique_ptr<platforms::Platform>>& lineup,
      sim::Rng& rng) const;

 private:
  int workload_rounds_;
};

}  // namespace hap
