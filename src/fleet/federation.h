// Federation: K cluster cells behind one global router.
//
// One level above Cluster, the same policy/mechanism split recurs: a
// FederationTopology describes K cells (each a full CellSpec — hosts,
// placement, autoscaler, fault schedule; heterogeneous cells are fine),
// a single TrafficSpec describes the global tenant population, and a
// RoutingPolicy decides which cell each arrival enters. Routing is the
// ranking layer of placement.h applied to cells: the same rules, walked
// the same way, in O(log K) per candidate.
//
// Execution model: the federation routes the whole population up front on
// *projected* cell load (the router never sees inside a cell mid-run),
// then runs each cell as its own deterministic Cluster with its routed
// subset as an explicit population. Cells remain byte-reproducible event
// streams; the federation adds no global clock. When a cell's run ends
// with tenants it would not hold — rejected at admission, or stranded by
// a fault with no survivor capacity — each such tenant walks the routing
// ranking again, skipping every cell it already tried, and moves to the
// next candidate: an inter-cell *spill*, mirrored per cell as
// spill_out/spill_in exactly like host-level spills inside a cluster.
// Affected cells re-run with their updated populations until the
// assignment reaches a fixed point (each tenant visits a cell at most
// once, so the loop is bounded by K runs per tenant in the worst case).
// The cells of one round run concurrently, on up to
// std::thread::hardware_concurrency() threads: each builds its own fresh
// Cluster, and cells share only immutable state (the host-kernel model and
// the built-in program table). Reports merge, and refused tenants are
// walked through the router, in cell-index order after the whole round has
// finished, so the outcome never depends on which cell finished first.
//
// Cell outages (chaos.h kCellOutage) kill every host of a cell at one
// instant. Standalone that strands every victim; under a federation the
// stranded victims re-enter the router at their jittered re-arrival time
// and re-boot in another cell. The federation-level recovery verdict
// measures outage instant -> re-boot served in the new cell, against the
// same TrafficSpec::replace_slo_ms budget in-cell crash recovery uses.
//
// A 1-cell federation is the degenerate case: FederationReport::to_text()
// renders the lone cell's FleetReport verbatim, byte-identical to running
// the equivalent Scenario through Cluster directly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/placement.h"
#include "fleet/report.h"
#include "fleet/scenario.h"
#include "sim/time.h"
#include "stats/sample_set.h"

namespace fleet {

/// One cell of the federation: a label, a region, and the full mechanism
/// spec of the cluster behind it.
struct CellDesc {
  /// Display name; empty defaults to "cell<index>" at run time.
  std::string name;
  std::string region = "r0";
  CellSpec spec;
};

struct FederationTopology {
  std::vector<CellDesc> cells;

  /// K identical cells stamped from one CellSpec, named cell0..cellK-1.
  static FederationTopology uniform(int cells, const CellSpec& spec);
};

/// A whole-cell failure, addressed by cell index. Lowered into that cell's
/// fault schedule as a chaos.h kCellOutage (every host dies at `time`);
/// the stranded victims re-enter the global router at their jittered
/// re-arrival instants and re-boot in another cell.
struct CellOutage {
  int cell = 0;
  sim::Nanos time = 0;
  sim::Nanos restart_delay = sim::millis(20);
  sim::Nanos restart_jitter = sim::millis(20);
};

/// The federated scenario: global policy (traffic + routing) over K
/// cell-scoped mechanism specs. The policy/mechanism split that Scenario
/// flattens into one struct for single-cluster runs is explicit here.
struct FederatedScenario {
  TrafficSpec traffic;
  RoutingKind routing = RoutingKind::kRoundRobin;
  FederationTopology topology;
  std::vector<CellOutage> outages;

  /// Lift a single-cluster Scenario into a K-cell federation: the traffic
  /// half becomes the global population, the cell half is stamped K times.
  /// With cells == 1 and kRoundRobin the run is byte-identical to
  /// Cluster::run(s).
  static FederatedScenario from_scenario(
      const Scenario& s, int cells = 1,
      RoutingKind routing = RoutingKind::kRoundRobin);

  /// Headline federation scenario: a cluster storm spread over K cells.
  static FederatedScenario federation_storm(
      int tenants, int cells, int hosts_per_cell,
      RoutingKind routing = RoutingKind::kLeastLoadedCell);
};

/// Everything a federated run observed: per-cell FleetReports rolled up
/// into global totals. Same contract as FleetReport — same scenario, seed
/// and topology render byte-identical text.
class FederationReport {
 public:
  std::string scenario;
  std::uint64_t seed = 0;
  std::string routing;

  struct CellRollup {
    std::string name;
    std::string region;
    int hosts = 0;    // initial host count
    int routed = 0;   // tenants in the final assignment
    int admitted = 0; // distinct tenants admitted (final run)
    int rejected = 0; // admission rejections in the final run
    /// Inter-cell spills absorbed / shed by this cell. Federation-wide,
    /// sum(spill_in) == sum(spill_out) == FederationReport::spills.
    int spill_in = 0;
    int spill_out = 0;
    bool outage = false;  // a kCellOutage hit this cell
    FleetReport report;   // the cell's full final report
  };
  std::vector<CellRollup> cells;

  // Global totals over the final assignment (each tenant counted once).
  int tenants = 0;    // global population size
  int admitted = 0;   // tenants admitted in their final cell
  int rejected = 0;   // tenants no cell would hold
  int completed = 0;
  /// Inter-cell moves: a tenant leaving a cell that refused or lost it
  /// for the next cell in its routing ranking.
  int spills = 0;
  sim::Nanos makespan = 0;              // max over cells
  std::uint64_t events_processed = 0;   // summed over final cell runs
  std::uint64_t ksm_probes = 0;         // summed over final cell runs
  std::uint64_t ksm_probe_memo_hits = 0;  // summed over final cell runs

  // Cell outages resolve at the federation level: in-cell the victims are
  // lost (no survivors), globally they re-route.
  int outage_victims = 0;   // tenants stranded by a cell outage
  int outage_rerouted = 0;  // re-admitted in another cell
  int outage_lost = 0;      // no remaining cell would take them
  /// Outage instant -> victim's re-boot served in its new cell, ms.
  stats::SampleSet outage_replace_ms;

  /// Recovery budget copied from TrafficSpec::replace_slo_ms; zero means
  /// no budget, no verdict line.
  sim::Nanos replace_slo_ms = 0;

  /// Federation recovery verdict: every in-cell fault verdict passes the
  /// budget — except cell-outage verdicts, which are judged here instead
  /// (re-routed victims with the p99 within budget, nobody lost), since
  /// in-cell a whole-cell outage always loses everyone.
  bool recovery_slo_pass() const;

  /// With one cell this is the cell's FleetReport::to_text() verbatim;
  /// with K > 1, a federation header, the cell rollup table, then each
  /// cell's full report.
  std::string to_text() const;
};

/// K cells behind one router. Each cell run builds a fresh Cluster and
/// frees it when that run returns, so run() is deterministic for a given
/// FederatedScenario (exactly like "build a fresh Cluster per reproducible
/// run"), and byte-identical whether a round's cells run on one thread or
/// on many.
class Federation {
 public:
  explicit Federation(FederationTopology topology);

  /// Route, run, spill to a fixed point, roll up. The dirty cells of each
  /// round run concurrently on up to hardware_concurrency() threads while
  /// the caller waits; a round with one dirty cell runs on the caller and
  /// starts no thread. The scenario's topology must match this
  /// federation's (cell count); throws std::invalid_argument on a cell
  /// count mismatch or an outage targeting an unknown cell, and runs
  /// validate(fs.traffic) (scenario.h) before it draws or routes. Each
  /// cell's spec is checked by that cell's own engine: an exception from a
  /// cell's run reaches the caller once every cell of its round has
  /// finished; with several, the lowest cell index wins.
  FederationReport run(const FederatedScenario& fs);

 private:
  FederationTopology topology_;
};

}  // namespace fleet
