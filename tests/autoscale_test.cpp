// Tests for adaptive placement: the retry-on-reject candidate walk and its
// spill accounting, the stop_at_first_oom latch semantics under retry, the
// pressure-aware policies' density/spread trade-offs, and mid-run cluster
// autoscaling (watermark-driven and explicit HostEvent hooks), including
// the byte-reproducibility guarantee for drains mid-storm.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/host_system.h"
#include "fleet/cluster.h"
#include "fleet/engine.h"
#include "fleet/placement.h"
#include "fleet/report.h"
#include "fleet/scenario.h"
#include "report_digest.h"

namespace {

using fleet::Cluster;
using fleet::FleetEngine;
using fleet::FleetReport;
using fleet::HostEvent;
using fleet::PlacementKind;
using fleet::PlacementPolicy;
using fleet::PlacementRequest;
using fleet::Scenario;
using fleet::TargetState;
using fleet::make_placement;
using testutil::digest;

FleetReport run_cluster(const Scenario& s) {
  Cluster cluster(s.cluster);
  return cluster.run(s);
}

/// A RAM-tight storm whose total demand exceeds `hosts` hosts' capacity:
/// hypervisor-heavy mix, 2 GiB guests, small per-host RAM.
Scenario pressure_storm(int tenants, int hosts, PlacementKind placement) {
  auto s = Scenario::cluster_storm(tenants, hosts, placement);
  s.guest_ram_bytes = 2048ull << 20;
  s.cluster.ram_bytes = 24ull << 30;
  return s;
}

/// Runs `s` on a fresh cluster's hosts through `policy` instead of the
/// scenario's own placement.
FleetReport run_engine(const Scenario& s, PlacementPolicy& policy) {
  Cluster cluster(s.cluster);
  return FleetEngine(cluster, policy).run(s);
}

int sum_spill_in(const FleetReport& r) {
  int total = 0;
  for (const auto& h : r.hosts) {
    total += h.spill_in;
  }
  return total;
}

int sum_spill_out(const FleetReport& r) {
  int total = 0;
  for (const auto& h : r.hosts) {
    total += h.spill_out;
  }
  return total;
}


// --- New policies, unit level ----------------------------------------------

std::vector<TargetState> uniform_views(int hosts, std::uint64_t cap) {
  std::vector<TargetState> views;
  for (int i = 0; i < hosts; ++i) {
    TargetState v;
    v.index = i;
    v.ram_cap_bytes = cap;
    v.pressure.cpu_threads = 16;
    views.push_back(v);
  }
  return views;
}

TEST(PlacementRankTest, RoundRobinRanksTheFullCycle) {
  const auto policy = make_placement(PlacementKind::kRoundRobin);
  const auto views = uniform_views(3, 1ull << 30);
  PlacementRequest req;
  std::vector<int> ranked;
  policy->reset();
  policy->rank(req, views, ranked);
  EXPECT_EQ(ranked, (std::vector<int>{0, 1, 2}));
  ranked.clear();
  policy->rank(req, views, ranked);
  EXPECT_EQ(ranked, (std::vector<int>{1, 2, 0}));
}

TEST(PlacementRankTest, LeastLoadedRanksByFreeRamDescending) {
  const auto policy = make_placement(PlacementKind::kLeastLoaded);
  auto views = uniform_views(3, 10ull << 30);
  views[0].resident_bytes = 4ull << 30;
  views[1].resident_bytes = 1ull << 30;
  views[2].resident_bytes = 6ull << 30;
  PlacementRequest req;
  std::vector<int> ranked;
  policy->rank(req, views, ranked);
  EXPECT_EQ(ranked, (std::vector<int>{1, 0, 2}));
}

TEST(PlacementRankTest, LeastPressureWeighsCpuAndNicNotJustRam) {
  const auto policy = make_placement(PlacementKind::kLeastPressure);
  auto views = uniform_views(2, 10ull << 30);
  // Equal RAM, but host 0 is CPU-saturated and NIC-busy: host 1 must rank
  // first even though least-loaded would tie and pick host 0.
  views[0].pressure.cpu_demand = 32.0;  // 2x its 16 threads
  views[0].pressure.net_active = 8;
  PlacementRequest req;
  EXPECT_EQ(policy->first_choice(req, views), 1);
  // Flip it: host 1 busy, host 0 idle.
  views[0].pressure.cpu_demand = 0.0;
  views[0].pressure.net_active = 0;
  views[1].pressure.cpu_demand = 32.0;
  EXPECT_EQ(policy->first_choice(req, views), 0);
  // RAM still dominates: a nearly-full idle host loses to a busy empty one.
  views[0].resident_bytes = (10ull << 30) - (64ull << 20);
  EXPECT_EQ(policy->first_choice(req, views), 1);
}

TEST(PlacementRankTest, PackThenSpillFillsLowestIndexToWatermarkFirst) {
  const auto policy = make_placement(PlacementKind::kPackThenSpill);
  auto views = uniform_views(3, 10ull << 30);
  PlacementRequest req;
  std::vector<int> ranked;
  // All empty: pure index order — everything piles on host 0.
  policy->rank(req, views, ranked);
  EXPECT_EQ(ranked, (std::vector<int>{0, 1, 2}));
  // Host 0 above the 90% watermark: it drops to the back of the walk.
  views[0].resident_bytes = static_cast<std::uint64_t>(9.5 * (1ull << 30));
  ranked.clear();
  policy->rank(req, views, ranked);
  EXPECT_EQ(ranked, (std::vector<int>{1, 2, 0}));
}

// --- Retry-on-reject / spill chains ----------------------------------------

TEST(SpillChainTest, TwoHostForcedSpillAdmitsWhatOneHostRejects) {
  // pack-then-spill deliberately overfills host 0; the retry walk turns
  // each refusal into an admission on host 1 instead of an OOM.
  auto one = pressure_storm(64, 1, PlacementKind::kPackThenSpill);
  const auto one_host = run_cluster(one);
  auto two = pressure_storm(64, 2, PlacementKind::kPackThenSpill);
  const auto two_hosts = run_cluster(two);

  EXPECT_GT(one_host.rejected, 0);  // the single host really is too small
  EXPECT_GT(two_hosts.admitted, one_host.admitted);
  EXPECT_GT(two_hosts.spills, 0);  // admissions that survived via the walk
  EXPECT_EQ(two_hosts.hosts[1].spill_in, two_hosts.spills);
  EXPECT_EQ(two_hosts.hosts[0].spill_out, two_hosts.spills);
}

TEST(SpillChainTest, SpillOutSumsEqualSpillInSums) {
  for (const auto kind : fleet::all_placement_kinds()) {
    const auto report = run_cluster(pressure_storm(192, 4, kind));
    EXPECT_EQ(sum_spill_in(report), sum_spill_out(report))
        << fleet::placement_kind_name(kind);
    EXPECT_EQ(sum_spill_in(report), report.spills)
        << fleet::placement_kind_name(kind);
  }
}

TEST(SpillChainTest, SpillsRenderInClusterReport) {
  const auto report = run_cluster(pressure_storm(64, 2, PlacementKind::kPackThenSpill));
  ASSERT_GT(report.spills, 0);
  const auto text = report.to_text();
  EXPECT_NE(text.find("spills: "), std::string::npos);
  EXPECT_NE(text.find("spill in"), std::string::npos);
  EXPECT_NE(text.find("spill out"), std::string::npos);
}

TEST(SpillChainTest, RetryAdmitsStrictlyMoreThanSingleShotPlacement) {
  // Two platforms on four hosts: ksm-affinity piles each platform onto one
  // host and, single-shot, keeps choosing the full pile host forever — the
  // other two hosts stay empty while arrivals are rejected. The retry walk
  // spills the overflow onto them instead.
  auto s = pressure_storm(192, 4, PlacementKind::kKsmAffinity);
  s.platform_mix = {
      {platforms::PlatformId::kFirecracker, 0.5},
      {platforms::PlatformId::kQemuKvm, 0.5},
  };

  const auto with_retry = run_cluster(s);

  fleet::SingleShotPolicy single_shot(
      make_placement(PlacementKind::kKsmAffinity));
  const auto without_retry = run_engine(s, single_shot);

  EXPECT_GT(without_retry.rejected, with_retry.rejected);
  EXPECT_GT(with_retry.admitted, without_retry.admitted);
  EXPECT_GT(with_retry.spills, 0);
  EXPECT_EQ(without_retry.spills, 0);
}

// --- Pinned reports, one per ranking rule ---------------------------------
//
// Each run below pins a whole report (digest and event count), so a slip
// in any rule's candidate order shows up here and not only in a bench
// diff. The pressure storms reject 500+ tenants after full walks, so
// per-host rejection counts depend on the whole walk order, not only on
// the first choice. Captured with gcc 12, identical in Release and Debug.

TEST(RankingPinTest, PressureStormPerPlacementRule) {
  const struct {
    PlacementKind kind;
    const char* digest;
    std::uint64_t events;
  } cases[] = {
      {PlacementKind::kRoundRobin, "d9c7b0fa4f2a7c8a", 948},
      {PlacementKind::kLeastLoaded, "ca62cd9e21f40b1b", 944},
      {PlacementKind::kKsmAffinity, "9e804ac206a24fef", 948},
      {PlacementKind::kLeastPressure, "9c884fe8a5562386", 944},
      {PlacementKind::kPackThenSpill, "48d0311a7fceddb9", 944},
  };
  for (const auto& c : cases) {
    const auto report = run_cluster(pressure_storm(600, 4, c.kind));
    const std::string what = fleet::placement_kind_name(c.kind);
    EXPECT_GT(report.rejected, 500) << what;
    EXPECT_EQ(digest(report.to_text()), c.digest) << what;
    EXPECT_EQ(report.events_processed, c.events) << what;
  }
}

TEST(RankingPinTest, SingleShotKsmAffinity) {
  auto s = pressure_storm(600, 4, PlacementKind::kKsmAffinity);
  s.platform_mix = {
      {platforms::PlatformId::kFirecracker, 0.5},
      {platforms::PlatformId::kQemuKvm, 0.5},
  };
  fleet::SingleShotPolicy single_shot(
      make_placement(PlacementKind::kKsmAffinity));
  const auto report = run_engine(s, single_shot);
  EXPECT_EQ(report.spills, 0);
  EXPECT_EQ(digest(report.to_text()), "afb623e1830848a4");
  EXPECT_EQ(report.events_processed, 736u);
}

TEST(RankingPinTest, CrashRecoveryWithScaleOut) {
  const auto report = run_cluster(Scenario::crash_recovery(600, 4, 6));
  ASSERT_EQ(report.recovery.size(), 1u);
  EXPECT_EQ(report.recovery[0].victims, 41);
  EXPECT_EQ(digest(report.to_text()), "d1769e9a8cfd2087");
  EXPECT_EQ(report.events_processed, 3238u);
}

TEST(RankingPinTest, AutoscaleStormDrainsAndGrows) {
  const auto report = run_cluster(Scenario::autoscale_storm(8000, 4, 8));
  EXPECT_EQ(report.drain_migrations, 276);
  EXPECT_EQ(digest(report.to_text()), "7624083dff8c0aec");
  EXPECT_EQ(report.events_processed, 41926u);
}

TEST(RankingPinTest, SingleHostShortcutHoldsRoundRobinCursorUntilGrowth) {
  // While the cluster has one host the engine admits on it without
  // walking the policy, so round-robin's cursor starts moving only once
  // the two added hosts join.
  auto s = Scenario::cluster_storm(400, 1, PlacementKind::kRoundRobin);
  s.arrival = fleet::ArrivalPattern::kRamp;
  s.arrival_window = sim::millis(500);
  HostEvent add;
  add.time = sim::millis(10);
  add.kind = HostEvent::Kind::kAdd;
  s.host_events = {add, add};
  const auto report = run_cluster(s);
  EXPECT_EQ(report.final_host_count, 3);
  EXPECT_EQ(digest(report.to_text()), "16f8270ed778eccd");
  EXPECT_EQ(report.events_processed, 2002u);
}

// --- stop_at_first_oom under retry -----------------------------------------

struct ByIndex {
  bool operator()(const TargetState& a, const TargetState& b) const {
    return a.index < b.index;
  }
};

/// Ranks hosts in fixed index order 0..M-1, so "the last host tried" in a
/// full walk is always the highest index.
using IndexOrderPolicy = fleet::HeapWalkRanking<ByIndex>;

TEST(StopAtFirstOomTest, LatchTripsOnlyAfterFullWalkFails) {
  // Host 0 fills long before host 1. Under single-shot semantics the first
  // host-0 refusal would have tripped the latch; under retry those tenants
  // spill to host 1 and the latch must stay open until both hosts refuse.
  auto s = pressure_storm(64, 2, PlacementKind::kPackThenSpill);
  s.stop_at_first_oom = true;
  const auto report = run_cluster(s);

  ASSERT_GE(report.first_oom_tenant, 0);
  EXPECT_GT(report.spills, 0);  // spills happened before the latch tripped
  // The tenant that tripped the latch was refused by every live host; its
  // rejection is attributed to the last host tried — exactly one host-level
  // rejection in the whole run (later arrivals short-circuit fleet-level).
  EXPECT_EQ(report.hosts[0].rejected + report.hosts[1].rejected, 1);
  // Every spilled admission must have happened before the wall: the
  // latch-tripping tenant arrived after all admitted ones.
  for (const auto& t : report.tenants) {
    if (t.id == static_cast<std::uint64_t>(report.first_oom_tenant)) {
      EXPECT_FALSE(t.admitted);
    }
  }
}

TEST(StopAtFirstOomTest, TrippingRejectionAttributedToLastHostTried) {
  auto s = pressure_storm(160, 3, PlacementKind::kRoundRobin);
  s.stop_at_first_oom = true;

  IndexOrderPolicy policy("index-order");
  const auto report = run_engine(s, policy);

  ASSERT_GE(report.first_oom_tenant, 0);
  // The walk always runs 0 -> 1 -> 2, so the full-walk failure lands on
  // host 2 and nowhere else.
  EXPECT_EQ(report.hosts[0].rejected, 0);
  EXPECT_EQ(report.hosts[1].rejected, 0);
  EXPECT_EQ(report.hosts[2].rejected, 1);
}

// --- The engine's check on what a policy emits -----------------------------

/// Emits the same candidates on every walk and ignores every push, so it
/// can emit hosts the engine must refuse.
class FixedWalkPolicy final : public PlacementPolicy {
 public:
  explicit FixedWalkPolicy(std::vector<int> walk) : walk_(std::move(walk)) {}
  std::string name() const override { return "fixed-walk"; }
  void reset() override {}
  void target_updated(const TargetState&) override {}
  void target_removed(int) override {}
  void walk_begin(const PlacementRequest&) override { next_ = 0; }
  int walk_next() override {
    return next_ < walk_.size() ? walk_[next_++] : -1;
  }
  void rank(const PlacementRequest&, const std::vector<TargetState>&,
            std::vector<int>& ranked) override {
    ranked = walk_;
  }

 private:
  std::vector<int> walk_;
  std::size_t next_ = 0;
};

TEST(WalkValidationTest, OutOfRangeHostThrows) {
  const auto s = Scenario::cluster_storm(16, 4);
  FixedWalkPolicy policy({7});
  EXPECT_THROW(run_engine(s, policy), std::out_of_range);
}

TEST(WalkValidationTest, DrainedHostThrows) {
  auto s = Scenario::cluster_storm(96, 4);
  FixedWalkPolicy policy({0, 1});
  // Control: without the drain the same walk is valid all run long.
  EXPECT_NO_THROW(run_engine(s, policy));
  HostEvent drain;
  drain.time = sim::millis(20);  // mid-storm: arrivals span 50 ms
  drain.kind = HostEvent::Kind::kDrain;
  drain.host = 0;
  s.host_events.push_back(drain);
  EXPECT_THROW(run_engine(s, policy), std::out_of_range);
}

TEST(WalkValidationTest, EmptyWalkThrows) {
  const auto s = Scenario::cluster_storm(16, 4);
  FixedWalkPolicy policy({});
  EXPECT_THROW(run_engine(s, policy), std::logic_error);
}

TEST(WalkValidationTest, FirstChoiceOfAnEmptyRankingThrows) {
  FixedWalkPolicy policy({});
  EXPECT_THROW(
      policy.first_choice(PlacementRequest{}, uniform_views(2, 1ull << 30)),
      std::logic_error);
}

// --- pack-then-spill density ------------------------------------------------

TEST(PackThenSpillTest, StrictlyMoreSharedPagesThanRoundRobinOnSameImageFleet) {
  // One hypervisor platform, room to spare, fewer than two tenants per
  // host: round-robin strands singletons whose image and zero runs merge
  // with nobody (sharing happens only within a host's stable tree), while
  // pack-then-spill piles everyone onto host 0's tree.
  auto s = Scenario::cluster_storm(6, 4);
  s.platform_mix = {{platforms::PlatformId::kFirecracker, 1.0}};
  s.guest_ram_bytes = 2048ull << 20;

  s.placement = PlacementKind::kRoundRobin;
  const auto rr = run_cluster(s);
  s.placement = PlacementKind::kPackThenSpill;
  const auto packed = run_cluster(s);

  EXPECT_EQ(rr.admitted, packed.admitted);  // nobody near the RAM wall
  EXPECT_GT(packed.ksm.shared_pages, rr.ksm.shared_pages);
  EXPECT_LT(packed.ksm.backing_pages, rr.ksm.backing_pages);
  EXPECT_GT(packed.ksm.density_gain, rr.ksm.density_gain);
}

// --- Autoscaling ------------------------------------------------------------

TEST(AutoscaleTest, ScaleOutAdmitsStrictlyMoreThanFixedTopology) {
  auto scaled = Scenario::autoscale_storm(256, 2, 6);
  scaled.guest_ram_bytes = 2048ull << 20;
  scaled.cluster.ram_bytes = 24ull << 30;
  // Growth only: scale-in after the storm subsides would legitimately
  // shrink final_host_count back down (covered by ScaleInDrains below).
  scaled.autoscale.scale_in_watermark = 0.0;
  auto fixed = scaled;
  fixed.autoscale.enabled = false;

  const auto fixed_report = run_cluster(fixed);
  const auto scaled_report = run_cluster(scaled);

  EXPECT_GT(fixed_report.rejected, 0);  // the fixed fleet really is too small
  EXPECT_GT(scaled_report.admitted, fixed_report.admitted);
  EXPECT_GT(scaled_report.tenants_admitted(), fixed_report.tenants_admitted());
  EXPECT_GT(scaled_report.final_host_count, 2);
  EXPECT_LE(scaled_report.final_host_count, 6);
  EXPECT_FALSE(scaled_report.autoscale_timeline.empty());
  EXPECT_TRUE(fixed_report.autoscale_timeline.empty());
  // Scale-outs happened and are visible in the rendered report.
  const auto text = scaled_report.to_text();
  EXPECT_NE(text.find("autoscale: "), std::string::npos);
  EXPECT_NE(text.find("scale-out"), std::string::npos);
}

TEST(AutoscaleTest, AutoscaledRunIsByteIdenticalAcrossFreshClusters) {
  auto s = Scenario::autoscale_storm(192, 2, 5);
  s.guest_ram_bytes = 2048ull << 20;
  s.cluster.ram_bytes = 24ull << 30;
  const auto a = run_cluster(s);
  const auto b = run_cluster(s);
  EXPECT_EQ(a.to_text(), b.to_text());
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_FALSE(a.autoscale_timeline.empty());
}

TEST(AutoscaleTest, ExplicitAddHostEventGrowsTheCluster) {
  auto s = Scenario::cluster_storm(64, 2, PlacementKind::kLeastLoaded);
  HostEvent add;
  add.time = sim::millis(10);
  add.kind = HostEvent::Kind::kAdd;
  s.host_events.push_back(add);
  const auto report = run_cluster(s);
  EXPECT_EQ(report.final_host_count, 3);
  EXPECT_EQ(report.hosts.size(), 3u);
  ASSERT_EQ(report.autoscale_timeline.size(), 1u);
  EXPECT_EQ(report.autoscale_timeline[0].action, "add");
  EXPECT_EQ(report.autoscale_timeline[0].host, 2);
}

TEST(AutoscaleTest, DrainMidStormMigratesTenantsAndStaysDeterministic) {
  // Drain host 0 in the middle of the boot storm: its tenants re-enter
  // placement + admission as churn-style re-arrivals on the surviving
  // hosts, and the whole run stays byte-identical across fresh clusters.
  auto s = Scenario::cluster_storm(96, 4, PlacementKind::kLeastLoaded);
  HostEvent drain;
  drain.time = sim::millis(20);  // mid-storm: arrivals span 50 ms
  drain.kind = HostEvent::Kind::kDrain;
  drain.host = 0;
  s.host_events.push_back(drain);

  const auto a = run_cluster(s);
  const auto b = run_cluster(s);
  EXPECT_EQ(a.to_text(), b.to_text());
  EXPECT_EQ(a.events_processed, b.events_processed);

  EXPECT_EQ(a.final_host_count, 3);
  EXPECT_EQ(a.hosts.size(), 4u);
  EXPECT_TRUE(a.hosts[0].drained);
  EXPECT_GT(a.drain_migrations, 0);
  ASSERT_EQ(a.autoscale_timeline.size(), 1u);
  EXPECT_EQ(a.autoscale_timeline[0].action, "drain");
  EXPECT_EQ(a.autoscale_timeline[0].host, 0);
  // Every tenant still completed: migration re-placed, never stranded.
  for (const auto& t : a.tenants) {
    EXPECT_TRUE(t.completed) << "tenant " << t.id;
  }
  const auto text = a.to_text();
  EXPECT_NE(text.find("drain"), std::string::npos);
  EXPECT_NE(text.find("(* = host was drained mid-run)"), std::string::npos);
}

TEST(AutoscaleTest, DrainNeverRemovesTheLastLiveHost) {
  auto s = Scenario::cluster_storm(16, 2, PlacementKind::kRoundRobin);
  HostEvent d0;
  d0.time = sim::millis(5);
  d0.kind = HostEvent::Kind::kDrain;
  d0.host = 0;
  HostEvent d1 = d0;
  d1.time = sim::millis(10);
  d1.host = 1;
  s.host_events = {d0, d1};
  const auto report = run_cluster(s);
  // The second drain is refused: one live host must always remain.
  EXPECT_EQ(report.final_host_count, 1);
  EXPECT_EQ(report.autoscale_timeline.size(), 1u);
  for (const auto& t : report.tenants) {
    EXPECT_TRUE(t.completed) << "tenant " << t.id;
  }
}

TEST(AutoscaleTest, ScaleInDrainsIdleHostsAfterThePressureSubsides) {
  // Ramp the fleet up under pressure, then let churn end; the trailing
  // evaluations see the resident fraction collapse and drain back down.
  auto s = Scenario::autoscale_storm(128, 2, 4);
  s.guest_ram_bytes = 2048ull << 20;
  s.cluster.ram_bytes = 24ull << 30;
  s.autoscale.scale_in_watermark = 0.30;
  const auto report = run_cluster(s);
  bool saw_scale_in = false;
  for (const auto& a : report.autoscale_timeline) {
    saw_scale_in = saw_scale_in || a.action == "scale-in";
  }
  EXPECT_TRUE(saw_scale_in);
  EXPECT_LT(report.final_host_count, 4);
}

TEST(AutoscaleTest, ClusterAddAndDrainHostApi) {
  fleet::ClusterTopology topo;
  topo.host_count = 2;
  topo.ram_bytes = 32ull << 30;
  Cluster cluster(topo);
  EXPECT_EQ(cluster.host_count(), 2);
  auto& added = cluster.add_host();
  EXPECT_EQ(cluster.host_count(), 3);
  EXPECT_EQ(&cluster.host(2), &added);
  EXPECT_EQ(added.spec().ram_bytes, 32ull << 30);
  // Host 2's RNG seed is derived from its index the same way construction
  // derives it: a 3-host cluster built up-front matches.
  fleet::ClusterTopology topo3 = topo;
  topo3.host_count = 3;
  Cluster upfront(topo3);
  EXPECT_EQ(added.spec().rng_seed, upfront.host(2).spec().rng_seed);
  // A run places on the grown cluster, and a drain shows in its report.
  auto s = Scenario::coldstart_storm(8);
  s.cluster.host_count = 3;  // matches the grown cluster
  HostEvent drain;
  drain.kind = HostEvent::Kind::kDrain;
  drain.time = sim::millis(1);
  drain.host = 1;
  s.host_events = {drain};
  const FleetReport r = cluster.run(s);
  ASSERT_EQ(r.hosts.size(), 3u);
  EXPECT_TRUE(r.hosts[1].drained);
  EXPECT_EQ(r.final_host_count, 2);
}

TEST(AutoscaleTest, RejectsNonPositiveEvalInterval) {
  auto s = Scenario::autoscale_storm(8, 2, 4);
  s.autoscale.eval_interval = 0;  // would re-queue at the same instant forever
  Cluster cluster(s.cluster);
  EXPECT_THROW(cluster.run(s), std::invalid_argument);
}

TEST(AutoscaleTest, RejectsMinHostsBelowOne) {
  // Scale-in drains while more than min_hosts are live, so a floor of 0
  // would let the first evaluation drain the only host and reject every
  // tenant.
  for (const int min_hosts : {0, -1}) {
    auto s = Scenario::autoscale_storm(64, 1, 2);
    s.autoscale.min_hosts = min_hosts;
    EXPECT_THROW(run_cluster(s), std::invalid_argument) << min_hosts;
  }
  auto s = Scenario::autoscale_storm(64, 1, 2);
  s.autoscale.min_hosts = 1;
  const FleetReport r = run_cluster(s);
  EXPECT_EQ(r.admitted, 64);
  EXPECT_GE(r.final_host_count, 1);
}

}  // namespace
