// Tests for the federation layer (src/fleet/federation.h): the 1-cell
// degenerate federation rendering byte-identical to Cluster, routing
// policy rank orderings (spec path) and walk/spec equivalence, forced
// inter-cell spills landing tenants a lone tiny cell would reject,
// spill-sum bookkeeping, cell-outage victims re-routing through the
// global router, byte-identity of K-cell runs across double runs, and
// concurrent cell runs reproducing the serial digests and errors.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/cluster.h"
#include "fleet/federation.h"
#include "fleet/placement.h"
#include "fleet/report.h"
#include "fleet/scenario.h"
#include "report_digest.h"
#include "sim/time.h"

namespace {

using fleet::CellOutage;
using fleet::CellView;
using fleet::Cluster;
using fleet::FederatedScenario;
using fleet::Federation;
using fleet::FederationReport;
using fleet::FederationTopology;
using fleet::FleetReport;
using fleet::make_routing;
using fleet::PlacementKind;
using fleet::PlacementRequest;
using fleet::RoutingKind;
using fleet::RoutingPolicy;
using fleet::Scenario;
using testutil::digest;

FederationReport run_federation(const FederatedScenario& fs) {
  Federation fed(fs.topology);
  return fed.run(fs);
}

CellView view(int index, std::uint64_t cap, std::uint64_t resident,
              int active, int same_platform) {
  CellView v;
  v.index = index;
  v.ram_cap_bytes = cap;
  v.resident_bytes = resident;
  v.active_tenants = active;
  v.same_platform_tenants = same_platform;
  return v;
}

// --- 1-cell degenerate case ----------------------------------------------

TEST(FederationTest, OneCellFederationMatchesClusterByteForByte) {
  const Scenario s = Scenario::cluster_storm(96, 4, PlacementKind::kLeastLoaded);
  Cluster cluster(s.cluster);
  const FleetReport direct = cluster.run(s);

  for (const RoutingKind k : fleet::all_routing_kinds()) {
    const FederatedScenario fs = FederatedScenario::from_scenario(s, 1, k);
    const FederationReport fed = run_federation(fs);
    EXPECT_EQ(fed.to_text(), direct.to_text())
        << "routing " << fleet::routing_kind_name(k);
    EXPECT_EQ(fed.cells.size(), 1u);
    EXPECT_EQ(fed.spills, 0);
    EXPECT_EQ(fed.admitted, direct.tenants_admitted());
  }
}

TEST(FederationTest, OneCellChaosScenarioMatchesCluster) {
  const Scenario s = Scenario::crash_recovery(120, 4, 6);
  Cluster cluster(s.cluster);
  const FleetReport direct = cluster.run(s);
  const FederationReport fed =
      run_federation(FederatedScenario::from_scenario(s, 1));
  EXPECT_EQ(fed.to_text(), direct.to_text());
}

// --- Routing rank order (spec path) --------------------------------------

TEST(FederationTest, RoundRobinRoutingCyclesCells) {
  auto r = make_routing(RoutingKind::kRoundRobin);
  r->reset();
  const std::vector<CellView> cells = {view(0, 100, 0, 0, 0),
                                       view(1, 100, 0, 0, 0),
                                       view(2, 100, 0, 0, 0)};
  PlacementRequest req;
  EXPECT_EQ(r->first_choice(req, cells), 0);
  EXPECT_EQ(r->first_choice(req, cells), 1);
  EXPECT_EQ(r->first_choice(req, cells), 2);
  EXPECT_EQ(r->first_choice(req, cells), 0);
}

TEST(FederationTest, LeastLoadedCellRanksByAggregateFreeRam) {
  auto r = make_routing(RoutingKind::kLeastLoadedCell);
  r->reset();
  // Free RAM: cell0 = 60, cell1 = 90, cell2 = 60 -> 1 first, then 0 before
  // 2 (index breaks the tie).
  const std::vector<CellView> cells = {view(0, 100, 40, 4, 0),
                                       view(1, 100, 10, 1, 0),
                                       view(2, 80, 20, 2, 0)};
  PlacementRequest req;
  std::vector<int> ranked;
  r->rank(req, cells, ranked);
  EXPECT_EQ(ranked, (std::vector<int>{1, 0, 2}));
}

TEST(FederationTest, PlatformAffinityPrefersCoTenantsThenFreeRam) {
  auto r = make_routing(RoutingKind::kPlatformAffinity);
  r->reset();
  // Cell 2 has co-tenants; cells 0 and 1 have none, so free RAM decides
  // between them (1 is freer).
  const std::vector<CellView> cells = {view(0, 100, 50, 5, 0),
                                       view(1, 100, 20, 2, 0),
                                       view(2, 100, 70, 7, 3)};
  PlacementRequest req;
  std::vector<int> ranked;
  r->rank(req, cells, ranked);
  EXPECT_EQ(ranked, (std::vector<int>{2, 1, 0}));
}

TEST(FederationTest, IncrementalWalkMatchesRankCellsSpec) {
  // Push identical state through both paths of each built-in policy and
  // pin walk order == snapshot-sort order (same invariant
  // placement_equivalence_test pins for hosts, one level up).
  const std::vector<CellView> cells = {view(0, 100, 40, 4, 1),
                                       view(1, 100, 10, 1, 0),
                                       view(2, 80, 20, 2, 2)};
  for (const RoutingKind kind : fleet::all_routing_kinds()) {
    auto spec = make_routing(kind);
    auto inc = make_routing(kind);
    spec->reset();
    inc->reset();
    for (const CellView& v : cells) {
      fleet::CellState st;
      st.index = v.index;
      st.ram_cap_bytes = v.ram_cap_bytes;
      st.resident_bytes = v.resident_bytes;
      st.active_tenants = v.active_tenants;
      inc->target_updated(st);
      inc->platform_count_changed(v.index,
                                  platforms::PlatformId::kQemuKvm,
                                  v.same_platform_tenants);
    }
    PlacementRequest req;
    req.platform_id = platforms::PlatformId::kQemuKvm;
    std::vector<int> ranked;
    spec->rank(req, cells, ranked);
    inc->walk_begin(req);
    std::vector<int> walked;
    for (int c = inc->walk_next(); c >= 0; c = inc->walk_next()) {
      walked.push_back(c);
    }
    EXPECT_EQ(walked, ranked) << fleet::routing_kind_name(kind);
  }
}

// --- Inter-cell spill -----------------------------------------------------

// A RAM-starved cell plus a roomy one: round-robin sends half the storm at
// the tiny cell, admission refuses the overflow, and the router walks the
// refused tenants into the big cell.
FederatedScenario tiny_plus_roomy(int tenants) {
  Scenario base = Scenario::cluster_storm(tenants, 1, PlacementKind::kLeastLoaded);
  FederatedScenario fs = FederatedScenario::from_scenario(
      base, 2, RoutingKind::kRoundRobin);
  fs.topology.cells[0].spec.host_ram_override_bytes = 3ull << 30;
  fs.topology.cells[0].region = "edge";
  fs.topology.cells[1].spec.cluster.host_count = 4;
  fs.topology.cells[1].region = "core";
  return fs;
}

TEST(FederationTest, RefusedTenantsSpillToTheNextRankedCell) {
  const FederatedScenario fs = tiny_plus_roomy(96);
  const FederationReport fed = run_federation(fs);

  ASSERT_EQ(fed.cells.size(), 2u);
  EXPECT_GT(fed.spills, 0);
  EXPECT_GT(fed.cells[0].spill_out, 0);
  EXPECT_GT(fed.cells[1].spill_in, 0);

  // Differential: the tiny cell alone rejects what the federation saves.
  Scenario alone = Scenario::cluster_storm(96, 1, PlacementKind::kLeastLoaded);
  alone.host_ram_override_bytes = 3ull << 30;
  Cluster cluster(alone.cluster);
  const FleetReport lone = cluster.run(alone);
  EXPECT_GT(lone.rejected, 0);
  EXPECT_GT(fed.admitted, lone.tenants_admitted());
}

TEST(FederationTest, SpillSumsBalanceAcrossCells) {
  const FederationReport fed = run_federation(tiny_plus_roomy(96));
  int in = 0;
  int out = 0;
  int routed = 0;
  for (const FederationReport::CellRollup& c : fed.cells) {
    in += c.spill_in;
    out += c.spill_out;
    routed += c.routed;
  }
  EXPECT_EQ(in, fed.spills);
  EXPECT_EQ(out, fed.spills);
  EXPECT_EQ(routed, fed.tenants);  // every tenant sits in exactly one cell
  EXPECT_EQ(fed.admitted + fed.rejected, fed.tenants);
}

// --- Cell outage ----------------------------------------------------------

FederatedScenario outage_federation(int tenants) {
  Scenario base = Scenario::cluster_storm(tenants, 3, PlacementKind::kLeastLoaded);
  base.replace_slo_ms = sim::seconds(30);
  FederatedScenario fs = FederatedScenario::from_scenario(
      base, 3, RoutingKind::kLeastLoadedCell);
  CellOutage o;
  o.cell = 1;
  o.time = sim::millis(40);
  fs.outages.push_back(o);
  return fs;
}

TEST(FederationTest, CellOutageVictimsRerouteThroughTheRouter) {
  const FederationReport fed = run_federation(outage_federation(120));

  ASSERT_EQ(fed.cells.size(), 3u);
  EXPECT_TRUE(fed.cells[1].outage);
  EXPECT_FALSE(fed.cells[0].outage);
  EXPECT_GT(fed.outage_victims, 0);
  EXPECT_EQ(fed.outage_rerouted + fed.outage_lost, fed.outage_victims);
  // Two healthy cells have the headroom: everyone booted somewhere else.
  EXPECT_EQ(fed.outage_lost, 0);
  EXPECT_EQ(static_cast<int>(fed.outage_replace_ms.size()),
            fed.outage_rerouted);
  EXPECT_TRUE(fed.recovery_slo_pass());
  const std::string text = fed.to_text();
  EXPECT_NE(text.find("cell outages:"), std::string::npos);
  EXPECT_NE(text.find("recovery SLO:"), std::string::npos);
  EXPECT_NE(text.find("OUTAGE"), std::string::npos);
}

TEST(FederationTest, OutageRunsAreByteIdenticalAcrossRuns) {
  const FederatedScenario fs = outage_federation(120);
  const FederationReport a = run_federation(fs);
  const FederationReport b = run_federation(fs);
  EXPECT_EQ(a.to_text(), b.to_text());
  EXPECT_EQ(a.events_processed, b.events_processed);
}

// --- Determinism ----------------------------------------------------------

TEST(FederationTest, KCellRunsAreByteIdenticalAcrossRuns) {
  for (const RoutingKind kind : fleet::all_routing_kinds()) {
    const FederatedScenario fs =
        FederatedScenario::federation_storm(90, 3, 2, kind);
    const std::string baseline = run_federation(fs).to_text();
    EXPECT_EQ(run_federation(fs).to_text(), baseline)
        << fleet::routing_kind_name(kind);
  }
}

// --- Concurrent cells against serial output --------------------------------

// isobench's tiny federation-spill shape: 4 cells of 2 small hosts, so
// every round runs several cells and ~8.5k tenants spill between them.
// isobench routes it by platform affinity; the other routings pin their
// own walk orders over the same shape. On a multi-core machine the cells
// of a round run concurrently; the platform-affinity digests below were
// captured from the serial implementation.
FederatedScenario tiny_spill(
    std::uint64_t seed, RoutingKind routing = RoutingKind::kPlatformAffinity) {
  FederatedScenario fs =
      FederatedScenario::federation_storm(4000, 4, 2, routing);
  for (fleet::CellDesc& cell : fs.topology.cells) {
    cell.spec.cluster.ram_bytes = 24ull << 30;
  }
  fs.traffic.seed = seed;
  return fs;
}

TEST(FederationTest, ConcurrentCellsReproduceSerialDigests) {
  struct Case {
    std::uint64_t seed;
    RoutingKind routing;
    const char* digest;
    std::uint64_t events;
  };
  // Seed 1's platform-affinity digest is the one isobench/expected.json
  // pins for this shape. The other rows pin each routing rule's walk order.
  for (const Case& c :
       {Case{1, RoutingKind::kPlatformAffinity, "e3795a1be5767d62", 9200},
        Case{7919, RoutingKind::kPlatformAffinity, "4bc21416c03c578b", 9236},
        Case{1, RoutingKind::kRoundRobin, "bcbc520062fd2542", 9172},
        Case{7919, RoutingKind::kRoundRobin, "c85fa146a89f7554", 9212},
        Case{1, RoutingKind::kLeastLoadedCell, "ad5096463a0f22e9", 9176},
        Case{7919, RoutingKind::kLeastLoadedCell, "4d53f1ad4ebf9e3b", 9212}}) {
    const std::string what =
        fleet::routing_kind_name(c.routing) + " seed " + std::to_string(c.seed);
    const FederationReport fed = run_federation(tiny_spill(c.seed, c.routing));
    EXPECT_GT(fed.spills, 8000) << what;
    EXPECT_EQ(digest(fed.to_text()), c.digest) << what;
    EXPECT_EQ(fed.events_processed, c.events) << what;
  }
}

TEST(FederationTest, ConcurrentCellsReproduceSerialDigestUnderCellOutage) {
  FederatedScenario fs = tiny_spill(1);
  CellOutage o;
  o.cell = 1;
  o.time = sim::millis(40);
  fs.outages.push_back(o);
  const FederationReport fed = run_federation(fs);
  EXPECT_TRUE(fed.cells[1].outage);
  EXPECT_GT(fed.outage_victims, 0);
  EXPECT_EQ(digest(fed.to_text()), "c785b6ef50ad9482");
  EXPECT_EQ(fed.events_processed, 8600u);
}

TEST(FederationTest, CellRejectedByItsEngineThrowsLowestIndexError) {
  // Cells 2 and 3 carry malformed specs that only their own engines
  // reject, while cells 0 and 1 run to completion beside them. The
  // lowest-index cell's error reaches the caller once every cell is done.
  FederatedScenario fs = tiny_spill(1);
  fleet::CellSpec& bad = fs.topology.cells[2].spec;
  bad.autoscale.enabled = true;
  bad.autoscale.eval_interval = 0;
  fleet::HostEvent drain;
  drain.kind = fleet::HostEvent::Kind::kDrain;
  drain.host = 99;  // no such host
  fs.topology.cells[3].spec.host_events.push_back(drain);
  try {
    run_federation(fs);
    FAIL() << "a malformed cell spec must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("eval_interval"), std::string::npos)
        << e.what();
  }
}

// --- Validation -----------------------------------------------------------

TEST(FederationTest, MalformedScenariosAreRejectedUpFront) {
  EXPECT_THROW(Federation(FederationTopology{}), std::invalid_argument);
  EXPECT_THROW(FederationTopology::uniform(0, fleet::CellSpec{}),
               std::invalid_argument);

  FederatedScenario fs =
      FederatedScenario::from_scenario(Scenario::cluster_storm(16, 2), 2);
  CellOutage o;
  o.cell = 5;  // no such cell
  fs.outages.push_back(o);
  Federation fed(fs.topology);
  EXPECT_THROW(fed.run(fs), std::invalid_argument);
}

TEST(FederationTest, NegativeTenantCountIsRejected) {
  // Clusters and federations both draw their tenants through
  // TrafficSpec::draw_population, which refuses up front a negative count
  // and every arrival input that would draw int64 nanoseconds negative or
  // wrap them.
  std::vector<Scenario> rows;
  Scenario s = Scenario::cluster_storm(16, 2);
  s.tenant_count = -1;
  rows.push_back(s);
  for (const double rate : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
    s = Scenario::steady_state_mix(16);
    s.arrival_rate_per_sec = rate;
    rows.push_back(s);
  }
  s = Scenario::steady_state_mix(16);
  s.arrival_rate_per_sec = 1e-12;  // mean gap 1e21 ns: past INT64_MAX
  rows.push_back(s);
  for (const auto pattern :
       {fleet::ArrivalPattern::kStorm, fleet::ArrivalPattern::kRamp}) {
    s = Scenario::cluster_storm(16, 2);
    s.arrival = pattern;
    s.arrival_window = -1;
    rows.push_back(s);
  }
  s = Scenario::cluster_storm(16, 2);
  s.arrival = fleet::ArrivalPattern::kRamp;
  s.arrival_window = std::numeric_limits<sim::Nanos>::max() / 8;
  rows.push_back(s);

  // The draw's own refusal, not a later error such as the clock refusing
  // an arrival that wrapped negative.
  const auto rejected_by_draw = [](const auto& run) {
    try {
      run();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what()).rfind("TrafficSpec: ", 0) == 0;
    }
    return false;
  };
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Scenario& row = rows[i];
    EXPECT_TRUE(rejected_by_draw([&] { Cluster(row.cluster).run(row); }))
        << "row " << i;
    EXPECT_TRUE(rejected_by_draw([&] {
      run_federation(FederatedScenario::from_scenario(row, 2));
    })) << "row " << i;
  }
}

TEST(FederationTest, MalformedPlatformWeightIsRejected) {
  // Every cell run reaches the engine's weight check, so the federation
  // refuses the mix rather than drop the share from every cell.
  for (const double w : {-1.0, std::nan("")}) {
    Scenario s = Scenario::cluster_storm(64, 2);
    s.platform_mix = {{platforms::PlatformId::kDocker, w},
                      {platforms::PlatformId::kFirecracker, 1.0}};
    EXPECT_THROW(run_federation(FederatedScenario::from_scenario(s, 2)),
                 std::invalid_argument)
        << w;
  }
}

}  // namespace
