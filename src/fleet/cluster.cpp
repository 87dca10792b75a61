#include "fleet/cluster.h"

#include <stdexcept>

#include "fleet/engine.h"
#include "fleet/placement.h"

namespace fleet {

Cluster::Cluster(const ClusterTopology& topo) : topo_(topo) {
  if (topo.host_count < 1) {
    throw std::invalid_argument("Cluster: host_count must be >= 1");
  }
  hosts_.reserve(static_cast<std::size_t>(topo.host_count));
  for (int i = 0; i < topo.host_count; ++i) {
    add_host();
  }
}

core::HostSystemSpec host_spec(const ClusterTopology& topo, int index) {
  core::HostSystemSpec spec;
  if (topo.cpu_threads > 0) {
    spec.cpu_threads = topo.cpu_threads;
  }
  if (topo.ram_bytes > 0) {
    spec.ram_bytes = topo.ram_bytes;
  }
  if (topo.nic_gbps > 0.0) {
    spec.nic.line_rate_bps = topo.nic_gbps * 1e9;
  }
  // Distinct per-host RNG streams; host 0 keeps the default seed. Derived
  // from the host index alone, so host i is identical whether built at
  // construction or added by the autoscaler mid-run.
  spec.rng_seed += 0x9E37'79B9'7F4A'7C15ull * static_cast<std::uint64_t>(index);
  return spec;
}

core::HostSystem& Cluster::add_host() {
  hosts_.push_back(
      std::make_unique<core::HostSystem>(host_spec(topo_, host_count())));
  return *hosts_.back();
}

FleetReport Cluster::run(const Scenario& scenario) {
  return FleetEngine(*this, *make_placement(scenario.placement)).run(scenario);
}

}  // namespace fleet
