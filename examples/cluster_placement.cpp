// Does placement policy matter once you have more than one host?
//
// coldstart_storm.cpp shows 64 tenants contending for ONE host. This
// example shards a 256-tenant storm across a 4-host fleet::Cluster under
// each placement policy and compares what an operator actually trades:
// round-robin, least-loaded and least-pressure spread load (best boot
// tail), ksm-affinity and pack-then-spill co-locate tenants sharing a
// platform image so their KSM digest runs merge (fewest backing pages ->
// most headroom), at some cost in tail latency on the piled-up hosts.
// Placement is only a preference: the policy *ranks* the hosts and the
// admission walk spills a refused tenant to the next candidate instead of
// recording an OOM.
#include <cstdio>

#include "fleet/cluster.h"
#include "fleet/placement.h"
#include "fleet/scenario.h"
#include "stats/table.h"

int main() {
  constexpr int kTenants = 256;
  constexpr int kHosts = 4;

  stats::Table table({"policy", "admitted", "ksm backing pages",
                      "density gain", "boot p50 (ms)", "boot p99 (ms)"});
  std::printf("cluster-storm: %d tenants across %d hosts, one policy at a "
              "time\n\n", kTenants, kHosts);

  fleet::FleetReport last;
  for (const auto kind : fleet::all_placement_kinds()) {
    const auto scenario = fleet::Scenario::cluster_storm(kTenants, kHosts, kind);
    fleet::Cluster cluster(scenario.cluster);  // fresh hosts per policy
    const auto report = cluster.run(scenario);
    table.add_row({fleet::placement_kind_name(kind),
                   std::to_string(report.admitted),
                   std::to_string(report.ksm.backing_pages),
                   stats::Table::num(report.ksm.density_gain),
                   stats::Table::num(report.cluster_boot_ms.percentile(50)),
                   stats::Table::num(report.cluster_boot_ms.percentile(99))});
    last = report;
  }
  std::printf("%s\n", table.to_text().c_str());

  std::printf(
      "Reading the table: every policy admits every tenant (these hosts\n"
      "have RAM to spare), but the co-locating policies (ksm-affinity,\n"
      "pack-then-spill) need the fewest backing pages: same-image guests\n"
      "share their zero-page and image digest runs only when they sit on\n"
      "the SAME host's KSM stable tree. Under RAM pressure that headroom\n"
      "becomes extra admissions, and overshoot spills to the next-ranked\n"
      "host instead of OOMing -- run fleet_scale to see it at 10k\n"
      "tenants, plus the autoscaler growing the fleet.\n\n"
      "The per-host rollup of the last run (%s) shows the other side:\n"
      "piling everything onto few hosts narrows the fleet's attack surface\n"
      "(hap fns column) but concentrates its boot storm.\n\n%s\n",
      last.placement.c_str(), last.to_text().c_str());
  return 0;
}
