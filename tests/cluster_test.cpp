// Tests for fleet::Cluster: placement policies (unit + differential),
// topology construction, per-host rollups, the incremental fleet-counter
// audit behind note_peaks, churn loops, and the byte-reproducibility
// guarantee across hosts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/host_system.h"
#include "fleet/cluster.h"
#include "fleet/engine.h"
#include "fleet/placement.h"
#include "fleet/report.h"
#include "fleet/scenario.h"

namespace {

using fleet::Cluster;
using fleet::ClusterTopology;
using fleet::FleetEngine;
using fleet::FleetReport;
using fleet::HostEvent;
using fleet::HostView;
using fleet::PlacementKind;
using fleet::PlacementRequest;
using fleet::Scenario;
using fleet::make_placement;

FleetReport run_cluster(const Scenario& s) {
  Cluster cluster(s.cluster);
  return cluster.run(s);
}

std::vector<HostView> uniform_views(int hosts, std::uint64_t cap) {
  std::vector<HostView> views;
  for (int i = 0; i < hosts; ++i) {
    HostView v;
    v.index = i;
    v.ram_cap_bytes = cap;
    views.push_back(v);
  }
  return views;
}

// --- Placement policies, unit level ---------------------------------------

TEST(PlacementTest, KindNamesAndFactory) {
  for (const auto kind : fleet::all_placement_kinds()) {
    const auto policy = make_placement(kind);
    EXPECT_EQ(policy->name(), fleet::placement_kind_name(kind));
  }
  EXPECT_EQ(fleet::placement_kind_name(PlacementKind::kKsmAffinity),
            "ksm-affinity");
}

TEST(PlacementTest, RoundRobinCyclesAndResets) {
  const auto policy = make_placement(PlacementKind::kRoundRobin);
  const auto views = uniform_views(3, 1ull << 30);
  PlacementRequest req;
  policy->reset();
  EXPECT_EQ(policy->first_choice(req, views), 0);
  EXPECT_EQ(policy->first_choice(req, views), 1);
  EXPECT_EQ(policy->first_choice(req, views), 2);
  EXPECT_EQ(policy->first_choice(req, views), 0);
  policy->reset();
  EXPECT_EQ(policy->first_choice(req, views), 0);
}

TEST(PlacementTest, LeastLoadedPicksMostFreeRamLowestIndexOnTies) {
  const auto policy = make_placement(PlacementKind::kLeastLoaded);
  auto views = uniform_views(3, 10ull << 30);
  views[0].resident_bytes = 4ull << 30;
  views[1].resident_bytes = 1ull << 30;
  views[2].resident_bytes = 6ull << 30;
  PlacementRequest req;
  EXPECT_EQ(policy->first_choice(req, views), 1);
  views[1].resident_bytes = views[0].resident_bytes;  // tie 0 vs 1
  EXPECT_EQ(policy->first_choice(req, views), 0);
}

TEST(PlacementTest, KsmAffinityPrefersCoTenantsThenFallsBack) {
  const auto policy = make_placement(PlacementKind::kKsmAffinity);
  auto views = uniform_views(3, 10ull << 30);
  views[2].same_platform_tenants = 4;
  views[2].resident_bytes = 8ull << 30;  // fullest, but has the co-tenants
  views[1].same_platform_tenants = 1;
  PlacementRequest req;
  EXPECT_EQ(policy->first_choice(req, views), 2);
  // No co-tenant anywhere: degrade to least-loaded.
  for (auto& v : views) {
    v.same_platform_tenants = 0;
  }
  EXPECT_EQ(policy->first_choice(req, views), 0);
  views[0].resident_bytes = 2ull << 30;
  EXPECT_EQ(policy->first_choice(req, views), 1);
}

// --- Topology --------------------------------------------------------------

TEST(ClusterTest, TopologyShapesEveryHost) {
  ClusterTopology topo;
  topo.host_count = 3;
  topo.cpu_threads = 32;
  topo.ram_bytes = 64ull << 30;
  topo.nic_gbps = 10.0;
  Cluster cluster(topo);
  ASSERT_EQ(cluster.host_count(), 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cluster.host(i).spec().cpu_threads, 32);
    EXPECT_EQ(cluster.host(i).spec().ram_bytes, 64ull << 30);
    EXPECT_DOUBLE_EQ(cluster.host(i).spec().nic.line_rate_bps, 10e9);
  }
}

TEST(ClusterTest, RejectsEmptyTopology) {
  ClusterTopology topo;
  topo.host_count = 0;
  EXPECT_THROW(Cluster{topo}, std::invalid_argument);
}

TEST(ClusterTest, EngineRequiresPolicyForMultipleHosts) {
  core::HostSystem a;
  core::HostSystem b;
  FleetEngine engine({&a, &b}, nullptr);
  EXPECT_THROW(engine.run(Scenario::coldstart_storm(8)),
               std::invalid_argument);
}

TEST(ClusterTest, RunRejectsMalformedMixWeights) {
  // A share weighted zero, negative or NaN never wins a weighted pick, and
  // an infinite weight swamps the rest: the run must refuse the mix rather
  // than drop or inflate the share.
  const double malformed[] = {0.0, -1.0, std::nan(""),
                              std::numeric_limits<double>::infinity()};
  for (const double w : malformed) {
    Scenario s = Scenario::cluster_storm(200, 2, PlacementKind::kLeastLoaded);
    s.platform_mix = {{platforms::PlatformId::kDocker, w},
                      {platforms::PlatformId::kFirecracker, 1.0}};
    EXPECT_THROW(run_cluster(s), std::invalid_argument) << "platform " << w;

    s = Scenario::cluster_storm(200, 2, PlacementKind::kLeastLoaded);
    s.workload_mix = {{platforms::WorkloadClass::kCpu, w},
                      {platforms::WorkloadClass::kMemory, 1.0}};
    EXPECT_THROW(run_cluster(s), std::invalid_argument) << "workload " << w;
  }
  // The same two-platform mix with a positive weight runs both platforms.
  Scenario s = Scenario::cluster_storm(200, 2, PlacementKind::kLeastLoaded);
  s.platform_mix = {{platforms::PlatformId::kDocker, 1.0},
                    {platforms::PlatformId::kFirecracker, 1.0}};
  const FleetReport r = run_cluster(s);
  EXPECT_EQ(r.by_platform.size(), 2u);
}

// --- Single-host equivalence ----------------------------------------------

TEST(ClusterTest, OneHostClusterMatchesFleetEngineByteForByte) {
  const auto s = Scenario::coldstart_storm(32);
  core::HostSystem host;
  FleetEngine engine(host);
  const auto direct = engine.run(s);
  const auto via_cluster = run_cluster(s);  // s.cluster.host_count == 1
  EXPECT_EQ(direct.to_text(), via_cluster.to_text());
  EXPECT_EQ(via_cluster.hosts.size(), 1u);
  EXPECT_TRUE(via_cluster.placement.empty());
}

// --- Cluster behavior ------------------------------------------------------

TEST(ClusterTest, ShardingScalesAdmissionsPastOneHost) {
  auto s = Scenario::cluster_storm(512, 1);
  s.guest_ram_bytes = 2048ull << 20;
  s.cluster.ram_bytes = 48ull << 30;
  const auto one_host = run_cluster(s);
  s.cluster.host_count = 4;
  const auto four_hosts = run_cluster(s);
  EXPECT_GT(one_host.rejected, 0);
  EXPECT_GT(four_hosts.admitted, one_host.admitted);
}

TEST(ClusterTest, PerHostRollupsSumToFleetTotals) {
  auto s = Scenario::cluster_storm(256, 4, PlacementKind::kLeastLoaded);
  s.guest_ram_bytes = 2048ull << 20;
  s.cluster.ram_bytes = 32ull << 30;  // small enough that rejections occur
  const auto report = run_cluster(s);
  ASSERT_EQ(report.hosts.size(), 4u);
  int admitted = 0;
  int rejected = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t hap_fns = 0;
  for (const auto& h : report.hosts) {
    admitted += h.admitted;
    rejected += h.rejected;
    hits += h.page_cache_hits;
    misses += h.page_cache_misses;
    hap_fns += h.hap.distinct_functions;
  }
  EXPECT_EQ(admitted, report.admitted);
  EXPECT_EQ(rejected, report.rejected);
  EXPECT_GT(report.rejected, 0);
  EXPECT_EQ(hits, report.page_cache_hits);
  EXPECT_EQ(misses, report.page_cache_misses);
  EXPECT_EQ(hap_fns, report.hap.distinct_functions);
}

TEST(ClusterTest, IncrementalFleetCountersMatchSummedForm) {
  // set_peak_audit re-derives the fleet resident/KSM sums from every shard
  // at each peak check and latches a failure on any drift from the O(1)
  // incremental counters. Exercise admissions, rejections, teardowns,
  // churn and drains.
  Scenario s = Scenario::cluster_storm(700, 4, PlacementKind::kLeastLoaded);
  s.churn_rounds = 1;
  HostEvent drain;
  drain.time = sim::millis(50);
  drain.kind = HostEvent::Kind::kDrain;
  s.host_events = {drain};
  Cluster cluster(s.cluster);
  const auto policy = make_placement(s.placement);
  std::vector<core::HostSystem*> hosts;
  for (int i = 0; i < cluster.host_count(); ++i) {
    hosts.push_back(&cluster.host(i));
  }
  FleetEngine engine(hosts, policy.get(), &cluster);
  engine.set_peak_audit(true);
  const FleetReport r = engine.run(s);
  EXPECT_TRUE(engine.peak_audit_ok());
  EXPECT_GT(r.admitted, 0);
}

// Forwards every call to the scenario's built-in policy and keeps the last
// HostState the engine pushed for each host.
class RecordingPolicy : public fleet::PlacementPolicy {
 public:
  explicit RecordingPolicy(PlacementKind kind) : inner_(make_placement(kind)) {}

  std::string name() const override { return inner_->name(); }
  void reset() override {
    last_.clear();
    inner_->reset();
  }
  void target_updated(const fleet::HostState& state) override {
    last_[state.index] = state;
    inner_->target_updated(state);
  }
  void platform_count_changed(int target, platforms::PlatformId platform,
                              int count) override {
    inner_->platform_count_changed(target, platform, count);
  }
  void target_removed(int target) override { inner_->target_removed(target); }
  void walk_begin(const PlacementRequest& req) override {
    inner_->walk_begin(req);
  }
  int walk_next() override { return inner_->walk_next(); }
  void rank(const PlacementRequest& req, const std::vector<HostView>& views,
            std::vector<int>& ranked) override {
    inner_->rank(req, views, ranked);
  }

  const std::map<int, fleet::HostState>& last() const { return last_; }

 private:
  std::unique_ptr<fleet::PlacementPolicy> inner_;
  std::map<int, fleet::HostState> last_;
};

TEST(ClusterTest, LiveHostsEndTheRunWithNothingCharged) {
  // Conservation: every charge a tenant puts on a host (boot, phase and
  // program-op vCPUs, NIC slots, resident bytes, the active count) is
  // given back by the time the run ends. Checked through the state the
  // engine last pushed to the policy, across drains, crashes, degrade
  // faults, partitions and churn.
  std::vector<Scenario> runs;
  Scenario drained = Scenario::program_storm(400, 4);
  HostEvent drain;
  drain.time = sim::millis(120);
  drain.kind = HostEvent::Kind::kDrain;
  drain.host = 1;
  drained.host_events = {drain};
  runs.push_back(drained);
  runs.push_back(Scenario::degrade_storm(400, 4));
  Scenario churn = Scenario::churn_mix(48, 2);
  churn.cluster.host_count = 2;
  churn.placement = PlacementKind::kLeastLoaded;
  runs.push_back(churn);
  runs.push_back(Scenario::crash_recovery(200, 3, 5));
  runs.push_back(Scenario::partition_storm(200, 4));
  runs.push_back(Scenario::rack_outage(200, 4));

  for (const Scenario& s : runs) {
    Cluster cluster(s.cluster);
    RecordingPolicy policy(s.placement);
    std::vector<core::HostSystem*> hosts;
    for (int i = 0; i < cluster.host_count(); ++i) {
      hosts.push_back(&cluster.host(i));
    }
    FleetEngine engine(hosts, &policy, &cluster);
    const FleetReport r = engine.run(s);
    EXPECT_GT(r.completed, 0) << s.name;
    if (&s == &runs.front()) {
      EXPECT_GT(r.drain_migrations, 0);
    }
    int live = 0;
    for (const auto& h : r.hosts) {
      if (h.drained || h.crashed) {
        continue;
      }
      ++live;
      const auto it = policy.last().find(h.host);
      ASSERT_NE(it, policy.last().end()) << s.name << " host " << h.host;
      const fleet::HostState& st = it->second;
      EXPECT_EQ(st.pressure.cpu_demand, 0.0) << s.name << " host " << h.host;
      EXPECT_EQ(st.pressure.net_active, 0) << s.name << " host " << h.host;
      EXPECT_EQ(st.active_tenants, 0) << s.name << " host " << h.host;
      EXPECT_EQ(st.resident_bytes, 0u) << s.name << " host " << h.host;
    }
    EXPECT_EQ(live, r.final_host_count) << s.name;
  }
}

TEST(ClusterTest, ReportRendersPlacementAndHostTable) {
  const auto report = run_cluster(Scenario::cluster_storm(64, 4));
  EXPECT_TRUE(report.is_cluster());
  const auto text = report.to_text();
  EXPECT_NE(text.find("placement: round-robin across 4 hosts"),
            std::string::npos);
  EXPECT_NE(text.find("cluster boot CDF"), std::string::npos);
  EXPECT_NE(text.find("ksm shared pages"), std::string::npos);
  EXPECT_FALSE(report.cluster_boot_ms.empty());
  EXPECT_EQ(report.cluster_boot_cdf().samples_ms.size(),
            report.cluster_boot_ms.size());
}

// --- Differential: placement policies -------------------------------------

TEST(ClusterDifferentialTest, RoundRobinAndLeastLoadedAgreeOnUniformFleet) {
  // Uniform fleet: one platform, fixed guest RAM, no KSM, storm arrivals
  // (every arrival lands before the first teardown frees RAM). Both
  // policies then fill M identical hosts evenly, so aggregate admission
  // counts must match exactly even though per-arrival choices differ.
  auto s = Scenario::cluster_storm(256, 4);
  s.platform_mix = {{platforms::PlatformId::kFirecracker, 1.0}};
  s.enable_ksm = false;
  s.guest_ram_bytes = 2048ull << 20;
  s.cluster.ram_bytes = 16ull << 30;

  s.placement = PlacementKind::kRoundRobin;
  const auto rr = run_cluster(s);
  s.placement = PlacementKind::kLeastLoaded;
  const auto ll = run_cluster(s);

  EXPECT_GT(rr.rejected, 0);  // the cap must actually bind
  EXPECT_EQ(rr.admitted, ll.admitted);
  EXPECT_EQ(rr.rejected, ll.rejected);
  EXPECT_EQ(rr.completed, ll.completed);
}

TEST(ClusterDifferentialTest, KsmAffinitySharesStrictlyMoreThanRoundRobin) {
  // Two hypervisor platforms, two tenants per host on average: round-robin
  // strands single tenants of a platform on a host (their image pages merge
  // with nobody), ksm-affinity co-locates same-image tenants, so the
  // cluster-wide shared page count must be strictly higher and the backing
  // page count strictly lower.
  auto s = Scenario::cluster_storm(16, 8);
  s.platform_mix = {
      {platforms::PlatformId::kQemuKvm, 0.5},
      {platforms::PlatformId::kFirecracker, 0.5},
  };
  s.guest_ram_bytes = 2048ull << 20;

  s.placement = PlacementKind::kRoundRobin;
  const auto rr = run_cluster(s);
  s.placement = PlacementKind::kKsmAffinity;
  const auto affinity = run_cluster(s);

  EXPECT_EQ(rr.admitted, affinity.admitted);  // nobody near the RAM wall
  EXPECT_GT(affinity.ksm.shared_pages, rr.ksm.shared_pages);
  EXPECT_LT(affinity.ksm.backing_pages, rr.ksm.backing_pages);
  EXPECT_GT(affinity.ksm.density_gain, rr.ksm.density_gain);
}

// --- Churn -----------------------------------------------------------------

TEST(ChurnTest, TenantsReenterTheFleet) {
  auto s = Scenario::churn_mix(16, 2);
  const auto churned = run_cluster(s);
  s.churn_rounds = 0;
  const auto single_pass = run_cluster(s);

  EXPECT_EQ(churned.churn_rearrivals, 16 * 2);
  EXPECT_EQ(single_pass.churn_rearrivals, 0);
  // Every re-arrival found room (steady-state mix is far from the wall):
  // three admissions and three completions per tenant.
  EXPECT_EQ(churned.admitted, 16 * 3);
  EXPECT_EQ(churned.completed, 16 * 3);
  EXPECT_GT(churned.makespan, single_pass.makespan);
  for (const auto& t : churned.tenants) {
    EXPECT_TRUE(t.completed);
    EXPECT_EQ(t.rounds_completed, 3);
    EXPECT_EQ(t.phases_run, s.phases_per_tenant * 3);
  }
  // The per-platform table counts distinct tenants (16), while the boot
  // latency distributions collect one sample per boot (48).
  int platform_tenants = 0;
  int boot_samples = 0;
  for (const auto& [name, stats] : churned.by_platform) {
    (void)name;
    platform_tenants += stats.tenants;
    boot_samples += static_cast<int>(stats.boot_ms.size());
  }
  EXPECT_EQ(platform_tenants, 16);
  EXPECT_EQ(boot_samples, 16 * 3);
}

TEST(ChurnTest, RejectedReentryLeavesACoherentOutcome) {
  // Density-sweep semantics + churn: once the host first fills, every
  // later (re-)arrival is rejected — so tenants that completed round 0
  // get turned away on re-entry. Their outcome must then read as a clean
  // rejection (not completed, no stale boot record), with the earlier
  // rounds still visible in rounds_completed/phases_run.
  auto s = Scenario::cluster_storm(96, 1);
  s.guest_ram_bytes = 2048ull << 20;
  s.cluster.ram_bytes = 24ull << 30;
  s.stop_at_first_oom = true;
  s.churn_rounds = 2;
  s.churn_gap = sim::millis(1);
  const auto report = run_cluster(s);
  ASSERT_GT(report.rejected, 0);
  // Density-stop short-circuits are fleet-level only: hosts are charged
  // just the rejections their RAM actually refused.
  int host_rejected = 0;
  for (const auto& h : report.hosts) {
    host_rejected += h.rejected;
  }
  EXPECT_LT(host_rejected, report.rejected);
  int rejected_after_completing = 0;
  for (const auto& t : report.tenants) {
    if (!t.admitted) {
      EXPECT_FALSE(t.completed) << "tenant " << t.id;
      EXPECT_EQ(t.boot_latency, 0) << "tenant " << t.id;
      EXPECT_EQ(t.completion, 0) << "tenant " << t.id;
      if (t.rounds_completed > 0) {
        ++rejected_after_completing;
      }
    }
  }
  EXPECT_GT(rejected_after_completing, 0);
}

TEST(ChurnTest, ChurnOnClusterIsDeterministic) {
  auto s = Scenario::cluster_storm(64, 4, PlacementKind::kLeastLoaded);
  s.churn_rounds = 2;
  const auto a = run_cluster(s);
  const auto b = run_cluster(s);
  EXPECT_EQ(a.to_text(), b.to_text());
  EXPECT_EQ(a.churn_rearrivals, 128);
}

// --- Determinism across every policy ---------------------------------------

TEST(ClusterDeterminismTest, ByteIdenticalReportsForEveryPolicy) {
  for (const auto kind : fleet::all_placement_kinds()) {
    const auto s = Scenario::cluster_storm(96, 4, kind);
    const auto a = run_cluster(s);
    const auto b = run_cluster(s);
    EXPECT_EQ(a.to_text(), b.to_text()) << fleet::placement_kind_name(kind);
    EXPECT_EQ(a.events_processed, b.events_processed);
  }
}

TEST(ClusterDeterminismTest, PoliciesProduceDistinctPlacements) {
  // Sanity: the three policies are not accidentally the same function —
  // on a mixed fleet their per-host admission splits differ.
  auto per_host = [](const FleetReport& r) {
    std::vector<int> counts;
    for (const auto& h : r.hosts) {
      counts.push_back(h.admitted);
    }
    return counts;
  };
  const auto rr =
      run_cluster(Scenario::cluster_storm(128, 4, PlacementKind::kRoundRobin));
  const auto affinity = run_cluster(
      Scenario::cluster_storm(128, 4, PlacementKind::kKsmAffinity));
  EXPECT_NE(per_host(rr), per_host(affinity));
}

}  // namespace
