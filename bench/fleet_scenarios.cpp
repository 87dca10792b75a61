// Fleet scenario harness: the consolidation questions the per-figure
// benches cannot ask.
//
// Runs the three built-in scenarios — a 64-tenant serverless cold-start
// storm across four platform types, a density sweep that packs hypervisor
// tenants until the host runs out of RAM (with and without KSM), and a
// steady-state mixed-platform fleet — each against a fresh HostSystem so
// output is byte-identical for identical seeds, then shards the storm
// across a 4-host fleet::Cluster under every placement policy.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "platforms/platform.h"
#include "core/export.h"
#include "core/host_system.h"
#include "fleet/cluster.h"
#include "fleet/engine.h"
#include "fleet/placement.h"
#include "fleet/scenario.h"

namespace {

fleet::FleetReport run_fresh(const fleet::Scenario& scenario) {
  core::HostSystem host;  // fresh host: cold page cache, pristine ftrace
  fleet::FleetEngine engine(host);
  return engine.run(scenario);
}

void print_report(const fleet::FleetReport& report) {
  std::printf("%s\n\n", report.to_text().c_str());
}

}  // namespace

int main(int argc, char** /*argv*/) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: fleet_scenarios\n");
    return 2;
  }

  benchutil::print_header(
      "fleet scenarios",
      "Multi-tenant consolidation on one shared host: cold-start storm,\n"
      "density sweep to first OOM, and a steady-state mixed fleet.");

  // --- 1. Serverless cold-start storm -------------------------------------
  const auto storm = fleet::Scenario::coldstart_storm(64);
  const auto storm_report = run_fresh(storm);
  std::printf("--- %s: %d tenants, arrivals within %.0f ms ---\n",
              storm.name.c_str(), storm.tenant_count,
              sim::to_millis(storm.arrival_window));
  print_report(storm_report);
  benchutil::note_export(
      core::export_cdfs("fleet_coldstart_storm", storm_report.boot_cdfs()));

  // --- 2. Density sweep to first OOM --------------------------------------
  auto sweep = fleet::Scenario::density_sweep(256);
  // Arrivals must outpace teardowns or the wall is never reached: early
  // tenants would free their RAM before the ramp ends.
  sweep.arrival_window = sim::millis(250);
  const auto with_ksm = run_fresh(sweep);
  sweep.enable_ksm = false;
  const auto without_ksm = run_fresh(sweep);
  std::string mix_names;
  for (const auto& share : sweep.platform_mix) {
    if (!mix_names.empty()) {
      mix_names += "/";
    }
    mix_names += platforms::platform_id_name(share.id);
  }
  std::printf("--- %s: pack %s guests until RAM runs out ---\n",
              sweep.name.c_str(), mix_names.c_str());
  std::printf("admitted with KSM    : %d tenants (density gain %.2fx)\n",
              with_ksm.admitted, with_ksm.ksm.density_gain);
  std::printf("admitted without KSM : %d tenants\n\n", without_ksm.admitted);
  print_report(with_ksm);

  // --- 3. Steady-state mixed-platform fleet --------------------------------
  const auto mix = fleet::Scenario::steady_state_mix(48);
  const auto mix_report = run_fresh(mix);
  std::printf("--- %s: Poisson arrivals, all workload classes ---\n",
              mix.name.c_str());
  print_report(mix_report);

  // --- 4. Cluster placement-policy sweep -----------------------------------
  // The same storm sharded across 4 hosts: policy ranks the hosts, the
  // admission walk spills refusals to the next candidate, the per-host
  // engine mechanism decides what everything costs.
  bool exported_cluster_cdf = false;
  for (const auto kind : fleet::all_placement_kinds()) {
    auto cluster_scenario = fleet::Scenario::cluster_storm(128, 4, kind);
    fleet::Cluster cluster(cluster_scenario.cluster);
    const auto report = cluster.run(cluster_scenario);
    std::printf("--- %s across %d hosts, placement %s ---\n",
                cluster_scenario.name.c_str(),
                cluster_scenario.cluster.host_count,
                fleet::placement_kind_name(kind).c_str());
    print_report(report);
    if (!exported_cluster_cdf) {
      benchutil::note_export(core::export_cdfs("fleet_cluster_storm",
                                               {report.cluster_boot_cdf()}));
      exported_cluster_cdf = true;
    }
  }

  // --- 5. Autoscaled storm vs fixed topology --------------------------------
  // A RAM-tight ramp on 2 hosts that may grow to 4: the watermark
  // autoscaler adds hosts while pressure builds and drains them once the
  // storm subsides, re-placing drained tenants through placement +
  // admission. Deterministic like everything else here.
  auto scaled = fleet::Scenario::autoscale_storm(192, 2, 4);
  scaled.guest_ram_bytes = 2048ull << 20;
  scaled.cluster.ram_bytes = 24ull << 30;
  auto fixed = scaled;
  fixed.autoscale.enabled = false;
  fleet::Cluster fixed_cluster(fixed.cluster);
  const auto fixed_report = fixed_cluster.run(fixed);
  fleet::Cluster scaled_cluster(scaled.cluster);
  const auto scaled_report = scaled_cluster.run(scaled);
  std::printf("--- %s: %d tenants, %d hosts fixed vs autoscale to %d ---\n",
              scaled.name.c_str(), scaled.tenant_count,
              scaled.cluster.host_count, scaled.autoscale.max_hosts);
  std::printf("fixed topology   : %d admitted, %d rejected\n",
              fixed_report.admitted, fixed_report.rejected);
  std::printf("with autoscaling : %d admitted, %d rejected, final %d hosts\n\n",
              scaled_report.admitted, scaled_report.rejected,
              scaled_report.final_host_count);
  print_report(scaled_report);

  // --- 6. Crash-recovery storm ----------------------------------------------
  // Chaos composed with autoscaling: host 0 crashes mid-ramp on a
  // RAM-tight fleet, the victims re-arrive on the survivors, and the
  // re-admission surge (not ambient load) trips the scale-out watermark.
  // The report grows a recovery section with per-fault verdicts.
  auto crash = fleet::Scenario::crash_recovery(192, 2, 4);
  fleet::Cluster crash_cluster(crash.cluster);
  const auto crash_report = crash_cluster.run(crash);
  std::printf("--- %s: %d tenants, host 0 crashes at %.0f ms ---\n",
              crash.name.c_str(), crash.tenant_count,
              sim::to_millis(crash.faults[0].time));
  std::printf("crash victims %d, re-admitted %d (%.0f%%), lost %d\n\n",
              crash_report.crash_victims, crash_report.crash_readmitted,
              100.0 * crash_report.readmission_fraction(),
              crash_report.crash_lost);
  print_report(crash_report);

  // --- 7. Syscall-program storm ---------------------------------------------
  // Most tenants interpret a built-in syscall program through the
  // HostKernel instead of drawing statistical phases; a statistical control
  // share rides along on the same hosts. The report grows a per-program
  // rollup with per-op-class p50/p99 and SLO verdicts, and must stay
  // byte-identical across runs like everything else.
  auto programs = fleet::Scenario::program_storm(160, 2);
  fleet::Cluster program_cluster(programs.cluster);
  const auto program_report = program_cluster.run(programs);
  std::printf("--- %s: %d tenants, built-in programs over the HostKernel ---\n",
              programs.name.c_str(), programs.tenant_count);
  print_report(program_report);

  // --- 8. Degrade storm ------------------------------------------------------
  // The degrade-family faults over interpreted programs: a disk running at
  // 1/6 throughput, a KSM unmerge storm spiking resident memory, a partial
  // partition cutting one host pair, and a mid-pressure crash — with per-op
  // retry/backoff on, so ops that would blow their SLO time out and
  // re-issue instead of completing late. The report grows a degraded:
  // section with per-fault verdicts, and the no-retry control shows what
  // the same schedule costs without graceful degradation.
  auto degraded = fleet::Scenario::degrade_storm(180, 3);
  fleet::Cluster degraded_cluster(degraded.cluster);
  const auto degraded_report = degraded_cluster.run(degraded);
  auto no_retry = degraded;
  no_retry.op_max_retries = 0;
  no_retry.op_backoff_base_ms = 0;
  fleet::Cluster no_retry_cluster(no_retry.cluster);
  const auto no_retry_report = no_retry_cluster.run(no_retry);
  std::printf("--- %s: %d tenants, degrade faults + per-op retry/backoff ---\n",
              degraded.name.c_str(), degraded.tenant_count);
  std::printf("with retries   : %d retries, %d give-ups, %d lost to crash\n",
              degraded_report.op_retries, degraded_report.op_give_ups,
              degraded_report.crash_lost);
  std::printf("no-retry control: %d retries, %d give-ups, %d lost to crash\n\n",
              no_retry_report.op_retries, no_retry_report.op_give_ups,
              no_retry_report.crash_lost);
  print_report(degraded_report);

  return 0;
}
