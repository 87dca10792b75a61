// Fleet engine scaling benchmark: the repo's recorded perf trajectory.
//
// Runs the cold-start storm and the density sweep at 1k/4k/10k tenants
// against a fresh HostSystem each, and reports real wall-clock time and
// simulator events per second — the first-order answer to "does the engine
// run as fast as the hardware allows as the fleet grows". With --hosts M
// (M > 1) it additionally shards the largest storm across an M-host
// fleet::Cluster under every placement policy, running each policy twice
// and failing hard unless the two reports are byte-identical — the
// cluster's determinism guarantee is checked on every bench run, not just
// in unit tests. Results are written as JSON (default
// BENCH_fleet_scale.json, see README "Performance") so successive PRs can
// compare runs; the checked-in copy at the repo root records the
// trajectory including the pre-optimization baseline. CI's perf gate
// (tools/check_perf_trajectory.py) diffs a fresh run against that copy.
//
// Additional cluster sweeps at explicit shapes (e.g. the 100k-tenant /
// 64-host storm the PR 5 engine unlocked) ride along via
// --clusters TENANTSxHOSTS[,...]; each emits its own block in the JSON
// "clusters" list and runs under the same run-twice byte-identity check.
//
// With --chaos the crash-recovery storm (host crash mid-ramp on a
// RAM-tight autoscaled fleet) is run twice — byte-identical or bust — and
// its recovery SLOs (re-admission fraction, time-to-re-place percentiles)
// land in the JSON as a "chaos" block, so the perf gate tracks fault
// turbulence next to clean-path throughput.
//
// With --cells CELLSxHOSTSxTENANTS[,...] the federation storm (the same
// cold-start storm routed across K cluster cells, federation.h) runs once
// per routing policy at each shape, each run performed twice against
// fresh federations — byte-identical or bust, the same determinism
// contract every other sweep enforces — and lands in the JSON as a
// "federation" list with per-routing wall clock and inter-cell spills.
//
// With --programs the program storm (most tenants interpreting a built-in
// syscall program over the HostKernel, src/fleet/program.h) is run twice —
// byte-identical or bust — and its per-op latency tail and SLO verdict
// land in the JSON as a "programs" block, so the perf gate tracks the
// program interpreter's cost next to the statistical phase path.
//
// With --degraded the degrade storm (disk degrade + KSM unmerge pressure +
// partial partition + mid-pressure crash over interpreted programs, with
// per-op retry/backoff on) is run twice — byte-identical or bust — plus a
// no-retry control over the same fault schedule. The retry differential
// (give-ups and permanently lost tenants, both arms) lands in the JSON as
// a "degraded" block, so the perf gate tracks graceful degradation next
// to clean-path throughput. Always the committed 180x3 storm shape: the
// fault windows are tuned against its boot/program phase boundary.
//
// Usage: fleet_scale [--tenants N[,N...]] [--hosts M]
//                    [--clusters NxM[,NxM...]]
//                    [--cells KxMxN[,KxMxN...]]
//                    [--autoscale] [--chaos] [--programs] [--degraded]
//                    [--out PATH] [--no-json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/host_system.h"
#include "fleet/cluster.h"
#include "fleet/engine.h"
#include "fleet/federation.h"
#include "fleet/placement.h"
#include "fleet/report.h"
#include "fleet/scenario.h"
#include "stats/table.h"

namespace {

struct ScaleResult {
  std::string scenario;
  int tenants = 0;
  double wall_ms = 0.0;
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  int admitted = 0;
  int completed = 0;
};

ScaleResult run_one(const fleet::Scenario& scenario) {
  core::HostSystem host;  // fresh host: cold page cache, pristine ftrace
  fleet::FleetEngine engine(host);
  const auto t0 = std::chrono::steady_clock::now();
  const auto report = engine.run(scenario);
  const auto t1 = std::chrono::steady_clock::now();
  ScaleResult r;
  r.scenario = scenario.name;
  r.tenants = scenario.tenant_count;
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.events = report.events_processed;
  r.events_per_sec =
      r.wall_ms > 0.0 ? static_cast<double>(r.events) / (r.wall_ms / 1e3)
                      : 0.0;
  r.admitted = report.admitted;
  r.completed = report.completed;
  return r;
}

struct ClusterScaleResult {
  std::string policy;
  int hosts = 0;
  int tenants = 0;
  double wall_ms = 0.0;
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  int admitted = 0;
  int completed = 0;
  int spills = 0;
  std::uint64_t ksm_shared_pages = 0;
  std::uint64_t ksm_backing_pages = 0;
  double boot_p50_ms = 0.0;
  double boot_p99_ms = 0.0;
  double makespan_ms = 0.0;
};

/// One cluster sweep configuration and its per-policy results.
struct ClusterBlock {
  int tenants = 0;
  int hosts = 0;
  std::vector<ClusterScaleResult> runs;
};

/// The autoscaled storm vs its fixed-topology control at the same size.
struct AutoscaleResult {
  int initial_hosts = 0;
  int max_hosts = 0;
  int final_hosts = 0;
  int tenants = 0;
  double wall_ms = 0.0;
  std::uint64_t events = 0;
  int admitted = 0;  // admissions, incl. drain-migration re-admissions
  int tenants_admitted = 0;  // distinct tenants admitted at run end
  int completed = 0;
  int spills = 0;
  int peak_hosts = 0;  // most live hosts at any point
  int scale_outs = 0;
  int scale_ins = 0;
  int drain_migrations = 0;
  int fixed_admitted = 0;          // same storm, autoscale off
  int fixed_tenants_admitted = 0;  // distinct, autoscale off
  double makespan_ms = 0.0;
};

/// One policy run against a fresh cluster; fills wall-clock and returns
/// the report (whose to_text() the caller uses for the determinism check).
fleet::FleetReport run_cluster_once(const fleet::Scenario& scenario,
                                    double* wall_ms) {
  fleet::Cluster cluster(scenario.cluster);
  const auto t0 = std::chrono::steady_clock::now();
  auto report = cluster.run(scenario);
  const auto t1 = std::chrono::steady_clock::now();
  *wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return report;
}

/// Runs the storm under every placement policy, twice each (byte-identical
/// reports or bust). Returns false on a determinism violation.
bool run_cluster_sweep(int tenants, int hosts,
                       std::vector<ClusterScaleResult>* results) {
  for (const auto kind : fleet::all_placement_kinds()) {
    const auto scenario = fleet::Scenario::cluster_storm(tenants, hosts, kind);
    double wall_a = 0.0;
    double wall_b = 0.0;
    const auto a = run_cluster_once(scenario, &wall_a);
    const auto b = run_cluster_once(scenario, &wall_b);
    // to_text() deliberately omits events_processed (compatibility
    // surface), so compare it explicitly too.
    if (a.to_text() != b.to_text() ||
        a.events_processed != b.events_processed) {
      std::fprintf(stderr,
                   "fleet_scale: DETERMINISM VIOLATION — policy %s produced "
                   "different reports across two fresh runs\n",
                   fleet::placement_kind_name(kind).c_str());
      return false;
    }
    ClusterScaleResult r;
    r.policy = fleet::placement_kind_name(kind);
    r.hosts = hosts;
    r.tenants = tenants;
    r.wall_ms = std::min(wall_a, wall_b);
    r.events = a.events_processed;
    r.events_per_sec =
        r.wall_ms > 0.0
            ? static_cast<double>(r.events) / (r.wall_ms / 1e3)
            : 0.0;
    r.admitted = a.admitted;
    r.completed = a.completed;
    r.spills = a.spills;
    r.ksm_shared_pages = a.ksm.shared_pages;
    r.ksm_backing_pages = a.ksm.backing_pages;
    r.boot_p50_ms = a.cluster_boot_ms.empty() ? 0.0
                                              : a.cluster_boot_ms.percentile(50);
    r.boot_p99_ms = a.cluster_boot_ms.empty() ? 0.0
                                              : a.cluster_boot_ms.percentile(99);
    r.makespan_ms = sim::to_millis(a.makespan);
    results->push_back(r);
  }
  return true;
}

/// The retry-on-reject differential: a RAM-tight two-platform storm under
/// ksm-affinity, where the policy's first choice is always the platform's
/// pile host. Single-shot placement (PR 3 semantics, emulated by ranking
/// only the first choice) keeps rejecting against the full pile while
/// other hosts sit idle; the retry walk spills the overflow there.
struct RetryDifferentialResult {
  int hosts = 0;
  int tenants = 0;
  int retry_admitted = 0;
  int single_shot_admitted = 0;
  int spills = 0;
  double wall_ms = 0.0;
};

fleet::Scenario retry_differential_scenario(int tenants, int hosts) {
  auto s = fleet::Scenario::cluster_storm(tenants, hosts,
                                          fleet::PlacementKind::kKsmAffinity);
  // Two platforms on M hosts: affinity builds two piles and leaves the
  // rest of the fleet as pure spill capacity single-shot placement never
  // reaches.
  s.platform_mix = {
      {platforms::PlatformId::kFirecracker, 0.5},
      {platforms::PlatformId::kQemuKvm, 0.5},
  };
  return s;
}

bool run_retry_differential(int tenants, int hosts,
                            RetryDifferentialResult* out) {
  const auto scenario = retry_differential_scenario(tenants, hosts);
  double wall_a = 0.0;
  double wall_b = 0.0;
  const auto a = run_cluster_once(scenario, &wall_a);
  const auto b = run_cluster_once(scenario, &wall_b);
  if (a.to_text() != b.to_text() || a.events_processed != b.events_processed) {
    std::fprintf(stderr,
                 "fleet_scale: DETERMINISM VIOLATION — retry differential "
                 "produced different reports across two fresh runs\n");
    return false;
  }

  fleet::Cluster cluster(scenario.cluster);
  std::vector<core::HostSystem*> cluster_hosts;
  cluster_hosts.reserve(static_cast<std::size_t>(cluster.host_count()));
  for (int i = 0; i < cluster.host_count(); ++i) {
    cluster_hosts.push_back(&cluster.host(i));
  }
  fleet::SingleShotPolicy single_shot(
      fleet::make_placement(fleet::PlacementKind::kKsmAffinity));
  fleet::FleetEngine engine(cluster_hosts, &single_shot);
  const auto ss = engine.run(scenario);

  out->hosts = hosts;
  out->tenants = tenants;
  out->retry_admitted = a.admitted;
  out->single_shot_admitted = ss.admitted;
  out->spills = a.spills;
  out->wall_ms = std::min(wall_a, wall_b);
  return true;
}

/// Autoscaled storm at the largest size: start at `hosts`, allow growth to
/// 2x, run twice (byte-identical or bust), plus the fixed-topology control.
/// Returns false on a determinism violation.
bool run_autoscale(int tenants, int hosts, AutoscaleResult* out) {
  const auto scenario =
      fleet::Scenario::autoscale_storm(tenants, hosts, 2 * hosts);
  double wall_a = 0.0;
  double wall_b = 0.0;
  const auto a = run_cluster_once(scenario, &wall_a);
  const auto b = run_cluster_once(scenario, &wall_b);
  if (a.to_text() != b.to_text() || a.events_processed != b.events_processed) {
    std::fprintf(stderr,
                 "fleet_scale: DETERMINISM VIOLATION — autoscaled storm "
                 "produced different reports across two fresh runs\n");
    return false;
  }
  auto fixed = scenario;
  fixed.autoscale.enabled = false;
  double wall_fixed = 0.0;
  const auto f = run_cluster_once(fixed, &wall_fixed);

  out->initial_hosts = hosts;
  out->max_hosts = 2 * hosts;
  out->final_hosts = a.final_host_count;
  out->tenants = tenants;
  out->wall_ms = std::min(wall_a, wall_b);
  out->events = a.events_processed;
  out->admitted = a.admitted;
  out->tenants_admitted = a.tenants_admitted();
  out->completed = a.completed;
  out->spills = a.spills;
  out->peak_hosts = hosts;
  for (const auto& action : a.autoscale_timeline) {
    out->peak_hosts = std::max(out->peak_hosts, action.live_hosts);
    if (action.action == "scale-out") {
      ++out->scale_outs;
    } else if (action.action == "scale-in") {
      ++out->scale_ins;
    }
  }
  out->drain_migrations = a.drain_migrations;
  out->fixed_admitted = f.admitted;
  out->fixed_tenants_admitted = f.tenants_admitted();
  out->makespan_ms = sim::to_millis(a.makespan);
  return true;
}

/// The crash-recovery storm: a mid-ramp host crash on a RAM-tight
/// autoscaled fleet, reported as recovery SLOs next to wall-clock.
struct ChaosResult {
  int tenants = 0;
  int hosts = 0;
  int max_hosts = 0;
  double wall_ms = 0.0;
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  int victims = 0;
  int readmitted = 0;
  int lost = 0;
  double readmission_fraction = 0.0;
  double replace_p50_ms = 0.0;
  double replace_p99_ms = 0.0;
  int scale_outs = 0;
  double makespan_ms = 0.0;
};

/// Crash-recovery storm run twice (byte-identical or bust). Returns false
/// on a determinism violation.
bool run_chaos(int tenants, int hosts, ChaosResult* out) {
  const auto scenario =
      fleet::Scenario::crash_recovery(tenants, hosts, 2 * hosts);
  double wall_a = 0.0;
  double wall_b = 0.0;
  const auto a = run_cluster_once(scenario, &wall_a);
  const auto b = run_cluster_once(scenario, &wall_b);
  if (a.to_text() != b.to_text() || a.events_processed != b.events_processed) {
    std::fprintf(stderr,
                 "fleet_scale: DETERMINISM VIOLATION — crash-recovery storm "
                 "produced different reports across two fresh runs\n");
    return false;
  }
  out->tenants = tenants;
  out->hosts = hosts;
  out->max_hosts = 2 * hosts;
  out->wall_ms = std::min(wall_a, wall_b);
  out->events = a.events_processed;
  out->events_per_sec =
      out->wall_ms > 0.0
          ? static_cast<double>(out->events) / (out->wall_ms / 1e3)
          : 0.0;
  out->victims = a.crash_victims;
  out->readmitted = a.crash_readmitted;
  out->lost = a.crash_lost;
  out->readmission_fraction = a.readmission_fraction();
  out->replace_p50_ms = a.replace_ms.empty() ? 0.0 : a.replace_ms.percentile(50);
  out->replace_p99_ms = a.replace_ms.empty() ? 0.0 : a.replace_ms.percentile(99);
  for (const auto& action : a.autoscale_timeline) {
    if (action.action == "scale-out") {
      ++out->scale_outs;
    }
  }
  out->makespan_ms = sim::to_millis(a.makespan);
  return true;
}

/// The program storm: per-tenant interpreted syscall programs, reported as
/// op throughput and the worst per-class p99 next to wall-clock.
struct ProgramsResult {
  int tenants = 0;
  int hosts = 0;
  double wall_ms = 0.0;
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  int admitted = 0;
  int completed = 0;
  int program_tenants = 0;       // tenants that interpreted a program
  std::uint64_t total_ops = 0;   // summed across programs and op classes
  double ops_per_sec = 0.0;      // total_ops / wall
  double op_p99_worst_ms = 0.0;  // worst per-class p99 across programs
  bool slo_pass = false;
  double makespan_ms = 0.0;
};

/// Program storm run twice (byte-identical or bust). Returns false on a
/// determinism violation.
bool run_programs(int tenants, int hosts, ProgramsResult* out) {
  const auto scenario = fleet::Scenario::program_storm(tenants, hosts);
  double wall_a = 0.0;
  double wall_b = 0.0;
  const auto a = run_cluster_once(scenario, &wall_a);
  const auto b = run_cluster_once(scenario, &wall_b);
  if (a.to_text() != b.to_text() || a.events_processed != b.events_processed) {
    std::fprintf(stderr,
                 "fleet_scale: DETERMINISM VIOLATION — program storm "
                 "produced different reports across two fresh runs\n");
    return false;
  }
  out->tenants = tenants;
  out->hosts = hosts;
  out->wall_ms = std::min(wall_a, wall_b);
  out->events = a.events_processed;
  out->events_per_sec =
      out->wall_ms > 0.0
          ? static_cast<double>(out->events) / (out->wall_ms / 1e3)
          : 0.0;
  out->admitted = a.admitted;
  out->completed = a.completed;
  for (const auto& [name, prog] : a.by_program) {
    (void)name;
    out->program_tenants += prog.tenants;
    for (const auto& cls : prog.by_class) {
      out->total_ops += cls.ops;
      if (!cls.op_ms.empty()) {
        out->op_p99_worst_ms =
            std::max(out->op_p99_worst_ms, cls.op_ms.percentile(99));
      }
    }
  }
  out->ops_per_sec =
      out->wall_ms > 0.0
          ? static_cast<double>(out->total_ops) / (out->wall_ms / 1e3)
          : 0.0;
  out->slo_pass = a.program_slo_pass();
  out->makespan_ms = sim::to_millis(a.makespan);
  return true;
}

/// The degrade storm plus its no-retry control: same fault schedule, the
/// only difference is per-op retry/backoff. The differential is the
/// committed graceful-degradation claim — the retry arm must give up on
/// fewer ops and permanently lose fewer crash victims.
struct DegradedResult {
  int tenants = 0;
  int hosts = 0;
  double wall_ms = 0.0;
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  double makespan_ms = 0.0;
  int faults = 0;        // DegradeVerdicts (disk, mem-pressure, partition)
  int affected = 0;      // tenants disturbed, summed over degrade faults
  int op_retries = 0;
  int op_give_ups = 0;
  int crash_lost = 0;
  double added_p99_worst_ms = 0.0;  // worst per-fault added-latency p99
  int control_give_ups = 0;   // no-retry arm
  int control_crash_lost = 0;
};

/// Degrade storm run twice (byte-identical or bust) plus the no-retry
/// control once. Returns false on a determinism violation.
bool run_degraded(int tenants, int hosts, DegradedResult* out) {
  const auto scenario = fleet::Scenario::degrade_storm(tenants, hosts);
  double wall_a = 0.0;
  double wall_b = 0.0;
  const auto a = run_cluster_once(scenario, &wall_a);
  const auto b = run_cluster_once(scenario, &wall_b);
  if (a.to_text() != b.to_text() || a.events_processed != b.events_processed) {
    std::fprintf(stderr,
                 "fleet_scale: DETERMINISM VIOLATION — degrade storm "
                 "produced different reports across two fresh runs\n");
    return false;
  }
  auto control = scenario;
  control.op_max_retries = 0;
  control.op_backoff_base_ms = 0;
  double wall_c = 0.0;
  const auto c = run_cluster_once(control, &wall_c);

  out->tenants = tenants;
  out->hosts = hosts;
  out->wall_ms = std::min(wall_a, wall_b);
  out->events = a.events_processed;
  out->events_per_sec =
      out->wall_ms > 0.0
          ? static_cast<double>(out->events) / (out->wall_ms / 1e3)
          : 0.0;
  out->makespan_ms = sim::to_millis(a.makespan);
  out->faults = static_cast<int>(a.degraded.size());
  for (const auto& v : a.degraded) {
    out->affected += v.affected;
    if (!v.added_ms.empty()) {
      out->added_p99_worst_ms =
          std::max(out->added_p99_worst_ms, v.added_ms.percentile(99));
    }
  }
  out->op_retries = a.op_retries;
  out->op_give_ups = a.op_give_ups;
  out->crash_lost = a.crash_lost;
  out->control_give_ups = c.op_give_ups;
  out->control_crash_lost = c.crash_lost;
  return true;
}

/// One routing policy's run of the federation storm at one shape.
struct FederationRunResult {
  std::string routing;
  double wall_ms = 0.0;
  std::uint64_t events = 0;  // summed over the final per-cell runs
  double events_per_sec = 0.0;
  int admitted = 0;
  int rejected = 0;
  int completed = 0;
  int spills = 0;  // inter-cell moves
  double makespan_ms = 0.0;
};

/// One federation sweep shape (K cells x M hosts each x N tenants) and its
/// per-routing results.
struct FederationBlock {
  int cells = 0;
  int hosts_per_cell = 0;
  int tenants = 0;
  std::vector<FederationRunResult> runs;
};

/// One federation run against fresh cells; fills wall-clock and returns
/// the report for the determinism check.
fleet::FederationReport run_federation_once(
    const fleet::FederatedScenario& fs, double* wall_ms) {
  fleet::Federation fed(fs.topology);
  const auto t0 = std::chrono::steady_clock::now();
  auto report = fed.run(fs);
  const auto t1 = std::chrono::steady_clock::now();
  *wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return report;
}

/// The federation storm at one shape, once per routing policy, each run
/// twice (byte-identical or bust). Returns false on a determinism
/// violation.
bool run_federation_sweep(FederationBlock* block) {
  for (const fleet::RoutingKind kind : fleet::all_routing_kinds()) {
    const auto fs = fleet::FederatedScenario::federation_storm(
        block->tenants, block->cells, block->hosts_per_cell, kind);
    double wall_a = 0.0;
    double wall_b = 0.0;
    const auto a = run_federation_once(fs, &wall_a);
    const auto b = run_federation_once(fs, &wall_b);
    if (a.to_text() != b.to_text() ||
        a.events_processed != b.events_processed) {
      std::fprintf(stderr,
                   "fleet_scale: DETERMINISM VIOLATION — federation storm "
                   "(%s) produced different reports across two fresh runs\n",
                   fleet::routing_kind_name(kind).c_str());
      return false;
    }
    FederationRunResult r;
    r.routing = fleet::routing_kind_name(kind);
    r.wall_ms = std::min(wall_a, wall_b);
    r.events = a.events_processed;
    r.events_per_sec =
        r.wall_ms > 0.0 ? static_cast<double>(r.events) / (r.wall_ms / 1e3)
                        : 0.0;
    r.admitted = a.admitted;
    r.rejected = a.rejected;
    r.completed = a.completed;
    r.spills = a.spills;
    r.makespan_ms = sim::to_millis(a.makespan);
    block->runs.push_back(r);
  }
  return true;
}

/// Parse a --clusters list: "TENANTSxHOSTS[,TENANTSxHOSTS...]".
bool parse_cluster_configs(const char* arg, std::vector<ClusterBlock>* out) {
  std::string token;
  const auto flush = [&]() {
    if (token.empty()) {
      return true;
    }
    const auto x = token.find('x');
    if (x == std::string::npos || x == 0 || x + 1 >= token.size()) {
      return false;
    }
    ClusterBlock block;
    block.tenants = std::atoi(token.substr(0, x).c_str());
    block.hosts = std::atoi(token.substr(x + 1).c_str());
    token.clear();
    if (block.tenants <= 0 || block.hosts <= 0) {
      return false;
    }
    out->push_back(block);
    return true;
  };
  for (const char* p = arg;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!flush()) {
        return false;
      }
      if (*p == '\0') {
        return true;
      }
    } else {
      token += *p;
    }
  }
}

/// Parse a --cells list: "CELLSxHOSTSxTENANTS[,...]".
bool parse_federation_configs(const char* arg,
                              std::vector<FederationBlock>* out) {
  std::string token;
  const auto flush = [&]() {
    if (token.empty()) {
      return true;
    }
    const auto x1 = token.find('x');
    if (x1 == std::string::npos || x1 == 0) {
      return false;
    }
    const auto x2 = token.find('x', x1 + 1);
    if (x2 == std::string::npos || x2 == x1 + 1 || x2 + 1 >= token.size()) {
      return false;
    }
    FederationBlock block;
    block.cells = std::atoi(token.substr(0, x1).c_str());
    block.hosts_per_cell = std::atoi(token.substr(x1 + 1, x2 - x1 - 1).c_str());
    block.tenants = std::atoi(token.substr(x2 + 1).c_str());
    token.clear();
    if (block.cells <= 0 || block.hosts_per_cell <= 0 || block.tenants <= 0) {
      return false;
    }
    out->push_back(block);
    return true;
  };
  for (const char* p = arg;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!flush()) {
        return false;
      }
      if (*p == '\0') {
        return true;
      }
    } else {
      token += *p;
    }
  }
}

std::vector<int> parse_sizes(const char* arg) {
  std::vector<int> sizes;
  std::string token;
  for (const char* p = arg;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!token.empty()) {
        sizes.push_back(std::atoi(token.c_str()));
        token.clear();
      }
      if (*p == '\0') {
        break;
      }
    } else {
      token += *p;
    }
  }
  return sizes;
}

/// Pre-optimization wall-clock and throughput for the same scenarios and
/// sizes, measured at PR 4 (commit d1d449a) on the engine with per-page
/// page-cache walks, mutate-and-rollback KSM admission trials and full
/// per-arrival placement sorts. A fixed historical record: emitting it
/// from here keeps the checked-in BENCH_fleet_scale.json fully
/// regenerable by just running this bench.
struct BaselineEntry {
  const char* scenario;
  int tenants;
  double wall_ms;
  double events_per_sec;
};
constexpr BaselineEntry kPrePrBaseline[] = {
    {"coldstart-storm", 1000, 394.1, 10150.0},
    {"density-sweep", 1000, 144.8, 12344.0},
    {"coldstart-storm", 4000, 998.8, 11163.0},
    {"density-sweep", 4000, 158.3, 30248.0},
    {"coldstart-storm", 10000, 889.0, 19151.0},
    {"density-sweep", 10000, 172.7, 62450.0},
};

/// The committed PR 4 cluster sweep at 10k tenants / 4 hosts — the
/// denominator of the tentpole's >=10x events/sec target.
struct ClusterBaselineEntry {
  const char* policy;
  double wall_ms;
  double events_per_sec;
};
constexpr int kClusterBaselineHosts = 4;
constexpr int kClusterBaselineTenants = 10000;
constexpr ClusterBaselineEntry kPrePrClusterBaseline[] = {
    {"round-robin", 3203.3, 9642.0},   {"least-loaded", 3209.4, 9627.0},
    {"ksm-affinity", 2252.3, 13717.0}, {"least-pressure", 3030.6, 10195.0},
    {"pack-then-spill", 2511.7, 12297.0},
};

const BaselineEntry* baseline_for(const ScaleResult& r) {
  for (const BaselineEntry& b : kPrePrBaseline) {
    if (r.scenario == b.scenario && r.tenants == b.tenants) {
      return &b;
    }
  }
  return nullptr;
}

const ClusterBaselineEntry* cluster_baseline_for(const ClusterBlock& block,
                                                 const std::string& policy) {
  if (block.hosts != kClusterBaselineHosts ||
      block.tenants != kClusterBaselineTenants) {
    return nullptr;
  }
  for (const ClusterBaselineEntry& b : kPrePrClusterBaseline) {
    if (policy == b.policy) {
      return &b;
    }
  }
  return nullptr;
}

void write_json(const std::string& path, const std::vector<ScaleResult>& runs,
                const std::vector<ClusterBlock>& clusters,
                const RetryDifferentialResult* retry,
                const AutoscaleResult* autoscale, const ChaosResult* chaos,
                const ProgramsResult* programs,
                const DegradedResult* degraded,
                const std::vector<FederationBlock>& federations) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "fleet_scale: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"fleet_scale\",\n");
  std::fprintf(f, "  \"schema_version\": 9,\n");
  std::fprintf(f, "  \"unit\": {\"wall_ms\": \"milliseconds\", "
                  "\"events_per_sec\": \"simulator events per second\"},\n");
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ScaleResult& r = runs[i];
    std::fprintf(f,
                 "    {\"scenario\": \"%s\", \"tenants\": %d, "
                 "\"wall_ms\": %.1f, \"events\": %llu, "
                 "\"events_per_sec\": %.0f, \"admitted\": %d, "
                 "\"completed\": %d}%s\n",
                 r.scenario.c_str(), r.tenants, r.wall_ms,
                 static_cast<unsigned long long>(r.events), r.events_per_sec,
                 r.admitted, r.completed, i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"baseline_pre_pr\": {\n");
  std::fprintf(f, "    \"commit\": \"d1d449a\",\n");
  std::fprintf(f, "    \"note\": \"same scenarios and sizes on the "
                  "pre-PR-5 engine (per-page page-cache walks, "
                  "mutate-and-rollback KSM admission trials, full "
                  "per-arrival placement sorts, per-boot timeline "
                  "construction)\",\n");
  std::fprintf(f, "    \"runs\": [\n");
  bool first = true;
  for (const ScaleResult& r : runs) {
    const BaselineEntry* b = baseline_for(r);
    if (b == nullptr) {
      continue;
    }
    std::fprintf(f,
                 "%s      {\"scenario\": \"%s\", \"tenants\": %d, "
                 "\"wall_ms\": %.1f, \"events_per_sec\": %.0f}",
                 first ? "" : ",\n", b->scenario, b->tenants, b->wall_ms,
                 b->events_per_sec);
    first = false;
  }
  std::fprintf(f, "\n    ],\n");
  std::fprintf(f, "    \"cluster\": {\"hosts\": %d, \"tenants\": %d, "
                  "\"runs\": [\n",
               kClusterBaselineHosts, kClusterBaselineTenants);
  for (std::size_t i = 0; i < std::size(kPrePrClusterBaseline); ++i) {
    const ClusterBaselineEntry& b = kPrePrClusterBaseline[i];
    std::fprintf(f,
                 "      {\"policy\": \"%s\", \"wall_ms\": %.1f, "
                 "\"events_per_sec\": %.0f}%s\n",
                 b.policy, b.wall_ms, b.events_per_sec,
                 i + 1 < std::size(kPrePrClusterBaseline) ? "," : "");
  }
  std::fprintf(f, "    ]}\n  },\n");
  std::fprintf(f, "  \"speedup_vs_pre_pr\": {");
  first = true;
  for (const ScaleResult& r : runs) {
    const BaselineEntry* b = baseline_for(r);
    if (b == nullptr || r.wall_ms <= 0.0) {
      continue;
    }
    std::fprintf(f, "%s\"%s@%d\": %.1f", first ? "" : ", ",
                 r.scenario.c_str(), r.tenants, b->wall_ms / r.wall_ms);
    first = false;
  }
  for (const ClusterBlock& block : clusters) {
    for (const ClusterScaleResult& r : block.runs) {
      const ClusterBaselineEntry* b = cluster_baseline_for(block, r.policy);
      if (b == nullptr || r.wall_ms <= 0.0) {
        continue;
      }
      std::fprintf(f, "%s\"cluster-%s@%dx%d\": %.1f", first ? "" : ", ",
                   r.policy.c_str(), block.tenants, block.hosts,
                   b->wall_ms / r.wall_ms);
      first = false;
    }
  }
  const bool more = !clusters.empty() ||
                    autoscale != nullptr || retry != nullptr ||
                    chaos != nullptr || programs != nullptr || degraded != nullptr ||
                    !federations.empty();
  std::fprintf(f, "}%s\n", more ? "," : "");
  if (!clusters.empty()) {
    std::fprintf(f, "  \"clusters\": [\n");
    for (std::size_t c = 0; c < clusters.size(); ++c) {
      const ClusterBlock& block = clusters[c];
      std::fprintf(f, "    {\n");
      std::fprintf(f, "      \"scenario\": \"cluster-storm\",\n");
      std::fprintf(f, "      \"hosts\": %d,\n", block.hosts);
      std::fprintf(f, "      \"tenants\": %d,\n", block.tenants);
      std::fprintf(f, "      \"determinism\": \"each policy run twice "
                      "against fresh clusters, reports byte-identical\",\n");
      std::fprintf(f, "      \"runs\": [\n");
      for (std::size_t i = 0; i < block.runs.size(); ++i) {
        const ClusterScaleResult& r = block.runs[i];
        std::fprintf(
            f,
            "        {\"policy\": \"%s\", \"wall_ms\": %.1f, "
            "\"events\": %llu, \"events_per_sec\": %.0f, "
            "\"admitted\": %d, \"completed\": %d, "
            "\"spills\": %d, "
            "\"ksm_shared_pages\": %llu, \"ksm_backing_pages\": %llu, "
            "\"boot_p50_ms\": %.2f, "
            "\"boot_p99_ms\": %.2f, \"makespan_ms\": %.2f}%s\n",
            r.policy.c_str(), r.wall_ms,
            static_cast<unsigned long long>(r.events), r.events_per_sec,
            r.admitted, r.completed, r.spills,
            static_cast<unsigned long long>(r.ksm_shared_pages),
            static_cast<unsigned long long>(r.ksm_backing_pages),
            r.boot_p50_ms, r.boot_p99_ms, r.makespan_ms,
            i + 1 < block.runs.size() ? "," : "");
      }
      std::fprintf(f, "      ]\n    }%s\n",
                   c + 1 < clusters.size() ? "," : "");
    }
    std::fprintf(f, "  ]%s\n",
                 retry != nullptr ||
                         autoscale != nullptr || chaos != nullptr ||
                         programs != nullptr || degraded != nullptr || !federations.empty()
                     ? ","
                     : "");
  }
  if (retry != nullptr) {
    std::fprintf(f, "  \"retry_vs_single_shot\": {\n");
    std::fprintf(f, "    \"scenario\": \"cluster-storm, firecracker/qemu-kvm "
                    "mix, ksm-affinity\",\n");
    std::fprintf(f, "    \"hosts\": %d,\n", retry->hosts);
    std::fprintf(f, "    \"tenants\": %d,\n", retry->tenants);
    std::fprintf(f, "    \"note\": \"single-shot = PR 3 semantics (walk only "
                    "the first-ranked host); the pile hosts fill while the "
                    "rest of the fleet idles\",\n");
    std::fprintf(f,
                 "    \"retry_admitted\": %d,\n"
                 "    \"single_shot_admitted\": %d,\n"
                 "    \"spills\": %d,\n"
                 "    \"wall_ms\": %.1f\n",
                 retry->retry_admitted, retry->single_shot_admitted,
                 retry->spills, retry->wall_ms);
    std::fprintf(f, "  }%s\n",
                 autoscale != nullptr || chaos != nullptr ||
                         programs != nullptr || degraded != nullptr || !federations.empty()
                     ? ","
                     : "");
  }
  if (autoscale != nullptr) {
    const AutoscaleResult& r = *autoscale;
    std::fprintf(f, "  \"autoscale\": {\n");
    std::fprintf(f, "    \"scenario\": \"autoscale-storm\",\n");
    std::fprintf(f, "    \"hosts\": %d,\n", r.initial_hosts);
    std::fprintf(f, "    \"max_hosts\": %d,\n", r.max_hosts);
    std::fprintf(f, "    \"tenants\": %d,\n", r.tenants);
    std::fprintf(f, "    \"determinism\": \"autoscaled storm run twice "
                    "against fresh clusters, reports byte-identical\",\n");
    std::fprintf(f,
                 "    \"run\": {\"wall_ms\": %.1f, \"events\": %llu, "
                 "\"admitted\": %d, \"tenants_admitted\": %d, "
                 "\"completed\": %d, \"spills\": %d, "
                 "\"final_hosts\": %d, \"peak_hosts\": %d, "
                 "\"scale_outs\": %d, "
                 "\"scale_ins\": %d, \"drain_migrations\": %d, "
                 "\"makespan_ms\": %.2f},\n",
                 r.wall_ms, static_cast<unsigned long long>(r.events),
                 r.admitted, r.tenants_admitted, r.completed, r.spills,
                 r.final_hosts, r.peak_hosts,
                 r.scale_outs, r.scale_ins, r.drain_migrations, r.makespan_ms);
    std::fprintf(f, "    \"fixed_topology\": {\"admitted\": %d, "
                    "\"tenants_admitted\": %d}\n",
                 r.fixed_admitted, r.fixed_tenants_admitted);
    std::fprintf(f, "  }%s\n",
                 chaos != nullptr || programs != nullptr || degraded != nullptr ||
                         !federations.empty()
                     ? ","
                     : "");
  }
  if (chaos != nullptr) {
    const ChaosResult& r = *chaos;
    std::fprintf(f, "  \"chaos\": {\n");
    std::fprintf(f, "    \"scenario\": \"crash-recovery\",\n");
    std::fprintf(f, "    \"hosts\": %d,\n", r.hosts);
    std::fprintf(f, "    \"max_hosts\": %d,\n", r.max_hosts);
    std::fprintf(f, "    \"tenants\": %d,\n", r.tenants);
    std::fprintf(f, "    \"determinism\": \"crash-recovery storm run twice "
                    "against fresh clusters, reports byte-identical\",\n");
    std::fprintf(f,
                 "    \"run\": {\"wall_ms\": %.1f, \"events\": %llu, "
                 "\"events_per_sec\": %.0f, \"makespan_ms\": %.2f},\n",
                 r.wall_ms, static_cast<unsigned long long>(r.events),
                 r.events_per_sec, r.makespan_ms);
    std::fprintf(f,
                 "    \"recovery\": {\"victims\": %d, \"readmitted\": %d, "
                 "\"lost\": %d, \"readmission_fraction\": %.4f, "
                 "\"replace_p50_ms\": %.2f, \"replace_p99_ms\": %.2f, "
                 "\"scale_outs\": %d}\n",
                 r.victims, r.readmitted, r.lost, r.readmission_fraction,
                 r.replace_p50_ms, r.replace_p99_ms, r.scale_outs);
    std::fprintf(f, "  }%s\n",
                 programs != nullptr || degraded != nullptr || !federations.empty() ? "," : "");
  }
  if (programs != nullptr) {
    const ProgramsResult& r = *programs;
    std::fprintf(f, "  \"programs\": {\n");
    std::fprintf(f, "    \"scenario\": \"program-storm\",\n");
    std::fprintf(f, "    \"hosts\": %d,\n", r.hosts);
    std::fprintf(f, "    \"tenants\": %d,\n", r.tenants);
    std::fprintf(f, "    \"determinism\": \"program storm run twice against "
                    "fresh clusters, reports byte-identical\",\n");
    std::fprintf(f,
                 "    \"run\": {\"wall_ms\": %.1f, \"events\": %llu, "
                 "\"events_per_sec\": %.0f, \"makespan_ms\": %.2f},\n",
                 r.wall_ms, static_cast<unsigned long long>(r.events),
                 r.events_per_sec, r.makespan_ms);
    std::fprintf(f,
                 "    \"ops\": {\"program_tenants\": %d, \"total_ops\": %llu, "
                 "\"ops_per_sec\": %.0f, \"op_p99_worst_ms\": %.3f, "
                 "\"slo_pass\": %s}\n",
                 r.program_tenants,
                 static_cast<unsigned long long>(r.total_ops), r.ops_per_sec,
                 r.op_p99_worst_ms, r.slo_pass ? "true" : "false");
    std::fprintf(f, "  }%s\n",
                 degraded != nullptr || !federations.empty() ? "," : "");
  }
  if (degraded != nullptr) {
    const DegradedResult& r = *degraded;
    std::fprintf(f, "  \"degraded\": {\n");
    std::fprintf(f, "    \"scenario\": \"degrade-storm\",\n");
    std::fprintf(f, "    \"hosts\": %d,\n", r.hosts);
    std::fprintf(f, "    \"tenants\": %d,\n", r.tenants);
    std::fprintf(f, "    \"determinism\": \"degrade storm run twice against "
                    "fresh clusters, reports byte-identical\",\n");
    std::fprintf(f,
                 "    \"run\": {\"wall_ms\": %.1f, \"events\": %llu, "
                 "\"events_per_sec\": %.0f, \"makespan_ms\": %.2f},\n",
                 r.wall_ms, static_cast<unsigned long long>(r.events),
                 r.events_per_sec, r.makespan_ms);
    std::fprintf(f,
                 "    \"faults\": {\"degrade_faults\": %d, \"affected\": %d, "
                 "\"added_p99_worst_ms\": %.3f},\n",
                 r.faults, r.affected, r.added_p99_worst_ms);
    std::fprintf(f,
                 "    \"retry\": {\"op_retries\": %d, \"op_give_ups\": %d, "
                 "\"crash_lost\": %d},\n",
                 r.op_retries, r.op_give_ups, r.crash_lost);
    std::fprintf(f,
                 "    \"no_retry_control\": {\"op_give_ups\": %d, "
                 "\"crash_lost\": %d}\n",
                 r.control_give_ups, r.control_crash_lost);
    std::fprintf(f, "  }%s\n", federations.empty() ? "" : ",");
  }
  if (!federations.empty()) {
    std::fprintf(f, "  \"federation\": [\n");
    for (std::size_t c = 0; c < federations.size(); ++c) {
      const FederationBlock& block = federations[c];
      std::fprintf(f, "    {\n");
      std::fprintf(f, "      \"scenario\": \"federation-storm\",\n");
      std::fprintf(f, "      \"cells\": %d,\n", block.cells);
      std::fprintf(f, "      \"hosts_per_cell\": %d,\n", block.hosts_per_cell);
      std::fprintf(f, "      \"tenants\": %d,\n", block.tenants);
      std::fprintf(f, "      \"determinism\": \"each routing policy run "
                      "twice against fresh federations, reports "
                      "byte-identical\",\n");
      std::fprintf(f, "      \"runs\": [\n");
      for (std::size_t i = 0; i < block.runs.size(); ++i) {
        const FederationRunResult& r = block.runs[i];
        std::fprintf(f,
                     "        {\"routing\": \"%s\", \"wall_ms\": %.1f, "
                     "\"events\": %llu, \"events_per_sec\": %.0f, "
                     "\"admitted\": %d, \"rejected\": %d, "
                     "\"completed\": %d, \"spills\": %d, "
                     "\"makespan_ms\": %.2f}%s\n",
                     r.routing.c_str(), r.wall_ms,
                     static_cast<unsigned long long>(r.events),
                     r.events_per_sec, r.admitted, r.rejected, r.completed,
                     r.spills, r.makespan_ms,
                     i + 1 < block.runs.size() ? "," : "");
      }
      std::fprintf(f, "      ]\n    }%s\n",
                   c + 1 < federations.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("(json written to %s)\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> sizes = {1000, 4000, 10000};
  std::string out = "BENCH_fleet_scale.json";
  bool json = true;
  bool autoscale = false;
  bool chaos = false;
  bool programs = false;
  bool degraded = false;
  int hosts = 1;
  std::vector<ClusterBlock> extra_clusters;
  std::vector<FederationBlock> federations;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tenants") == 0 && i + 1 < argc) {
      sizes = parse_sizes(argv[++i]);
    } else if (std::strcmp(argv[i], "--hosts") == 0 && i + 1 < argc) {
      hosts = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--clusters") == 0 && i + 1 < argc) {
      if (!parse_cluster_configs(argv[++i], &extra_clusters)) {
        std::fprintf(stderr,
                     "fleet_scale: --clusters wants TENANTSxHOSTS[,...] "
                     "with positive integers\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--cells") == 0 && i + 1 < argc) {
      if (!parse_federation_configs(argv[++i], &federations)) {
        std::fprintf(stderr,
                     "fleet_scale: --cells wants CELLSxHOSTSxTENANTS[,...] "
                     "with positive integers\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--autoscale") == 0) {
      autoscale = true;
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos = true;
    } else if (std::strcmp(argv[i], "--programs") == 0) {
      programs = true;
    } else if (std::strcmp(argv[i], "--degraded") == 0) {
      degraded = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--no-json") == 0) {
      json = false;
    } else {
      std::fprintf(stderr,
                   "usage: fleet_scale [--tenants N[,N...]] [--hosts M] "
                   "[--clusters NxM[,NxM...]] "
                   "[--cells KxMxN[,KxMxN...]] "
                   "[--autoscale] [--chaos] [--programs] [--degraded] "
                   "[--out PATH] [--no-json]\n");
      return 2;
    }
  }
  if (autoscale && hosts < 2) {
    std::fprintf(stderr, "fleet_scale: --autoscale needs --hosts >= 2\n");
    return 2;
  }
  if (chaos && hosts < 2) {
    std::fprintf(stderr, "fleet_scale: --chaos needs --hosts >= 2\n");
    return 2;
  }
  if (programs && hosts < 2) {
    std::fprintf(stderr, "fleet_scale: --programs needs --hosts >= 2\n");
    return 2;
  }
  if (sizes.empty()) {
    std::fprintf(stderr, "fleet_scale: --tenants needs at least one size\n");
    return 2;
  }
  for (int n : sizes) {
    if (n <= 0) {
      std::fprintf(stderr,
                   "fleet_scale: tenant sizes must be positive integers\n");
      return 2;
    }
  }
  if (hosts < 1) {
    std::fprintf(stderr, "fleet_scale: --hosts must be >= 1\n");
    return 2;
  }

  benchutil::print_header(
      "fleet scale",
      "Engine scaling trajectory: cold-start storm and density sweep at\n"
      "growing tenant counts, real wall-clock and events/sec per run.");

  std::vector<ScaleResult> runs;
  for (int n : sizes) {
    runs.push_back(run_one(fleet::Scenario::coldstart_storm(n)));
    auto sweep = fleet::Scenario::density_sweep(n);
    // Arrivals must outpace teardowns or the density wall is never reached.
    sweep.arrival_window = sim::millis(250);
    runs.push_back(run_one(sweep));
  }

  stats::Table table({"scenario", "tenants", "wall (ms)", "events",
                      "events/sec", "admitted"});
  for (const ScaleResult& r : runs) {
    table.add_row({r.scenario, std::to_string(r.tenants),
                   stats::Table::num(r.wall_ms),
                   std::to_string(r.events),
                   stats::Table::num(r.events_per_sec, 0),
                   std::to_string(r.admitted)});
  }
  std::printf("%s\n", table.to_text().c_str());

  std::vector<ClusterBlock> clusters;
  if (hosts > 1) {
    ClusterBlock primary;
    primary.tenants = *std::max_element(sizes.begin(), sizes.end());
    primary.hosts = hosts;
    clusters.push_back(primary);
  }
  for (const ClusterBlock& block : extra_clusters) {
    clusters.push_back(block);
  }
  for (ClusterBlock& block : clusters) {
    std::printf("cluster-storm: %d tenants sharded across %d hosts, every "
                "placement policy run twice\n\n",
                block.tenants, block.hosts);
    if (!run_cluster_sweep(block.tenants, block.hosts, &block.runs)) {
      return 1;
    }
    stats::Table cluster_table({"policy", "wall (ms)", "events/sec",
                                "admitted", "completed", "spills",
                                "ksm shared", "ksm backing", "boot p50 (ms)",
                                "boot p99 (ms)", "makespan (ms)"});
    for (const ClusterScaleResult& r : block.runs) {
      cluster_table.add_row(
          {r.policy, stats::Table::num(r.wall_ms),
           stats::Table::num(r.events_per_sec, 0), std::to_string(r.admitted),
           std::to_string(r.completed), std::to_string(r.spills),
           std::to_string(r.ksm_shared_pages),
           std::to_string(r.ksm_backing_pages),
           stats::Table::num(r.boot_p50_ms), stats::Table::num(r.boot_p99_ms),
           stats::Table::num(r.makespan_ms)});
    }
    std::printf("%s\n", cluster_table.to_text().c_str());
    std::printf("determinism: %zu policies x 2 fresh runs each, reports "
                "byte-identical\n\n",
                block.runs.size());
  }

  RetryDifferentialResult retry_result;
  if (hosts > 1) {
    const int rd_tenants = *std::max_element(sizes.begin(), sizes.end());
    std::printf("\nretry vs single-shot: %d tenants, %d hosts, two-platform "
                "ksm-affinity piles\n\n",
                rd_tenants, hosts);
    if (!run_retry_differential(rd_tenants, hosts, &retry_result)) {
      return 1;
    }
    std::printf("retry-on-reject admitted %d (%d spills); single-shot "
                "placement admitted %d\n",
                retry_result.retry_admitted, retry_result.spills,
                retry_result.single_shot_admitted);
  }

  AutoscaleResult autoscale_result;
  if (autoscale) {
    const int as_tenants = *std::max_element(sizes.begin(), sizes.end());
    std::printf("\nautoscale-storm: %d tenants, %d -> up to %d hosts, run "
                "twice + fixed-topology control\n\n",
                as_tenants, hosts, 2 * hosts);
    if (!run_autoscale(as_tenants, hosts, &autoscale_result)) {
      return 1;
    }
    std::printf("tenants admitted %d (fixed topology: %d), hosts %d peak / "
                "%d final, %d scale-outs, %d scale-ins, %d drain migrations, "
                "%d spills, wall %.1f ms\n",
                autoscale_result.tenants_admitted,
                autoscale_result.fixed_tenants_admitted,
                autoscale_result.peak_hosts, autoscale_result.final_hosts,
                autoscale_result.scale_outs,
                autoscale_result.scale_ins, autoscale_result.drain_migrations,
                autoscale_result.spills, autoscale_result.wall_ms);
  }

  ChaosResult chaos_result;
  if (chaos) {
    const int ch_tenants = *std::max_element(sizes.begin(), sizes.end());
    std::printf("\ncrash-recovery: %d tenants, %d -> up to %d hosts, host 0 "
                "crashes mid-ramp, run twice\n\n",
                ch_tenants, hosts, 2 * hosts);
    if (!run_chaos(ch_tenants, hosts, &chaos_result)) {
      return 1;
    }
    std::printf("crash victims %d, re-admitted %d (%.0f%%), lost %d, "
                "re-place p50 %.2f ms / p99 %.2f ms, %d scale-outs, "
                "wall %.1f ms\n",
                chaos_result.victims, chaos_result.readmitted,
                100.0 * chaos_result.readmission_fraction, chaos_result.lost,
                chaos_result.replace_p50_ms, chaos_result.replace_p99_ms,
                chaos_result.scale_outs, chaos_result.wall_ms);
  }

  ProgramsResult programs_result;
  if (programs) {
    const int pg_tenants = *std::max_element(sizes.begin(), sizes.end());
    std::printf("\nprogram-storm: %d tenants x %d hosts, built-in syscall "
                "programs over the HostKernel, run twice\n\n",
                pg_tenants, hosts);
    if (!run_programs(pg_tenants, hosts, &programs_result)) {
      return 1;
    }
    std::printf("program tenants %d, %llu ops (%.0f ops/sec), worst per-class "
                "p99 %.3f ms, SLO %s, wall %.1f ms\n",
                programs_result.program_tenants,
                static_cast<unsigned long long>(programs_result.total_ops),
                programs_result.ops_per_sec, programs_result.op_p99_worst_ms,
                programs_result.slo_pass ? "PASS" : "FAIL",
                programs_result.wall_ms);
  }

  DegradedResult degraded_result;
  if (degraded) {
    std::printf("\ndegrade-storm: 180 tenants x 3 hosts (committed shape), "
                "disk degrade + mem pressure + partial partition + crash, "
                "run twice + no-retry control\n\n");
    if (!run_degraded(180, 3, &degraded_result)) {
      return 1;
    }
    std::printf("degrade faults %d (%d tenants affected, worst added p99 "
                "%.2f ms); retry arm: %d retries, %d give-ups, %d lost; "
                "no-retry control: %d give-ups, %d lost; wall %.1f ms\n",
                degraded_result.faults, degraded_result.affected,
                degraded_result.added_p99_worst_ms,
                degraded_result.op_retries, degraded_result.op_give_ups,
                degraded_result.crash_lost, degraded_result.control_give_ups,
                degraded_result.control_crash_lost, degraded_result.wall_ms);
  }

  for (FederationBlock& block : federations) {
    std::printf("\nfederation-storm: %d tenants routed across %d cells x %d "
                "hosts, every routing policy run twice\n\n",
                block.tenants, block.cells, block.hosts_per_cell);
    if (!run_federation_sweep(&block)) {
      return 1;
    }
    stats::Table fed_table({"routing", "wall (ms)", "events/sec", "admitted",
                            "rejected", "completed", "spills",
                            "makespan (ms)"});
    for (const FederationRunResult& r : block.runs) {
      fed_table.add_row(
          {r.routing, stats::Table::num(r.wall_ms),
           stats::Table::num(r.events_per_sec, 0), std::to_string(r.admitted),
           std::to_string(r.rejected), std::to_string(r.completed),
           std::to_string(r.spills), stats::Table::num(r.makespan_ms)});
    }
    std::printf("%s\n", fed_table.to_text().c_str());
    std::printf("determinism: %zu routings x 2 fresh runs each, reports "
                "byte-identical\n",
                block.runs.size());
  }

  if (json) {
    write_json(out, runs, clusters, hosts > 1 ? &retry_result : nullptr,
               autoscale ? &autoscale_result : nullptr,
               chaos ? &chaos_result : nullptr,
               programs ? &programs_result : nullptr,
               degraded ? &degraded_result : nullptr, federations);
  }
  return 0;
}
