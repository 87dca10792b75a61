#include "fleet/cluster.h"

#include <stdexcept>

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

core::HostSystemSpec Cluster::spec_for(int index) const {
  core::HostSystemSpec spec;
  if (topo_.cpu_threads > 0) {
    spec.cpu_threads = topo_.cpu_threads;
  }
  if (topo_.ram_bytes > 0) {
    spec.ram_bytes = topo_.ram_bytes;
  }
  if (topo_.nic_gbps > 0.0) {
    spec.nic.line_rate_bps = topo_.nic_gbps * 1e9;
  }
  // Distinct per-host RNG streams; host 0 keeps the default seed so a
  // 1-host cluster matches the single-host engine byte for byte. Derived
  // from the host index alone, so host i is identical whether built at
  // construction or added by the autoscaler mid-run.
  spec.rng_seed += 0x9E37'79B9'7F4A'7C15ull * static_cast<std::uint64_t>(index);
  return spec;
}

core::HostSystem& Cluster::add_host() {
  const int index = static_cast<int>(hosts_.size());
  hosts_.push_back(std::make_unique<core::HostSystem>(spec_for(index)));
  return *hosts_.back();
}

FleetReport Cluster::run(const Scenario& scenario) {
  const auto policy = make_placement(scenario.placement);
  std::vector<core::HostSystem*> hosts;
  hosts.reserve(hosts_.size());
  for (const auto& h : hosts_) {
    hosts.push_back(h.get());
  }
  FleetEngine engine(hosts, policy.get(), this);
  return engine.run(scenario);
}

}  // namespace fleet
