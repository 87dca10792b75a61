// What happens when everyone cold-starts at once?
//
// serverless_coldstart.cpp sizes platforms one boot at a time; this example
// asks the fleet-level question: 64 function instances arrive within 50 ms
// on one shared host, so boots compete for CPU, the first boot per image
// warms the host page cache for the rest, and the p99 an operator actually
// observes is set by contention, not by the per-platform CDF alone.
#include <cstdio>

#include "fleet/cluster.h"
#include "fleet/scenario.h"

int main() {
  auto scenario = fleet::Scenario::coldstart_storm(64);

  const auto report = fleet::Cluster(scenario.cluster).run(scenario);

  std::printf("%s\n\n", report.to_text().c_str());

  std::printf(
      "Reading the table: the storm stretches every platform's tail. The\n"
      "first tenant per image pays the NVMe read to warm the host page\n"
      "cache (%llu misses); later tenants boot from cache. Peak demand hit\n"
      "%.2fx the host's threads, so end-to-end cold starts run that much\n"
      "slower than the single-tenant CDFs of Figures 13-15 suggest.\n",
      static_cast<unsigned long long>(report.page_cache_misses),
      report.peak_cpu_demand);
  return 0;
}
