// fleet::Cluster — M HostSystem shards behind one placement policy.
//
// The cluster is the sharding layer the single shared host could not give
// us: each host keeps its own page cache, NVMe, NIC, kernel ftrace and KSM
// stable tree, tenants are routed to a host by the scenario's
// PlacementPolicy at every (re-)arrival, and one global deterministic
// event queue merges all hosts' timelines so cluster runs stay
// byte-reproducible. This mirrors policy-aware middleware design (RAFDA's
// separation of application logic from distribution policy; RDA's
// device/server partitioning): the policy decides *where*, the per-host
// engine mechanism decides *what it costs*.
//
// The cluster is also the engine's HostProvisioner: scenarios with an
// autoscale spec or timed HostEvents can add fresh hosts mid-run (each
// with a deterministic RNG seed derived from its index). Drains stay
// inside the engine: tenants are re-placed through placement + admission,
// then the host retires and takes no further placements; the report's
// host rollups and final_host_count record which hosts ended live.
#pragma once

#include <memory>
#include <vector>

#include "core/host_system.h"
#include "fleet/engine.h"
#include "fleet/report.h"
#include "fleet/scenario.h"

namespace fleet {

class Cluster : public HostProvisioner {
 public:
  /// Build host_count hosts from the topology. Host 0 uses the default
  /// HostSystemSpec RNG seed (so a 1-host cluster reproduces the
  /// single-host engine byte for byte); later hosts perturb it.
  explicit Cluster(const ClusterTopology& topo);

  /// Run one scenario across the cluster with scenario.placement deciding
  /// where each tenant lands. Deterministic against fresh hosts; reuse
  /// warms page caches, advances host RNG streams, and keeps hosts added
  /// by a previous run's autoscaler, so build a fresh Cluster per
  /// reproducible run.
  FleetReport run(const Scenario& scenario);

  /// Append one more host shaped by the topology, with the same
  /// index-derived RNG seed formula as construction — adding host i always
  /// yields the same host, whether at build time or mid-run.
  core::HostSystem& add_host();

  int host_count() const { return static_cast<int>(hosts_.size()); }
  core::HostSystem& host(int i) { return *hosts_.at(static_cast<std::size_t>(i)); }

  // HostProvisioner (the engine's view of the cluster):
  core::HostSystem* provision_host() override { return &add_host(); }

 private:
  core::HostSystemSpec spec_for(int index) const;

  ClusterTopology topo_;
  std::vector<std::unique_ptr<core::HostSystem>> hosts_;
};

}  // namespace fleet
