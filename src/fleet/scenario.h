// Scenario: the policy side of a fleet simulation.
//
// Separates *what the fleet does* (tenant arrivals, platform mix, workload
// mix) from *how the platforms behave* (the cost models under src/platforms
// and src/hostk), in the spirit of policy-aware middleware design. Since the
// federation redesign the split is explicit in the types:
//
//   TrafficSpec — global policy: who arrives when, what they run, which
//                 SLOs the run is held to, and the seed. One TrafficSpec
//                 drives a whole federation; it knows nothing about hosts.
//   CellSpec    — cell-scoped mechanism: topology, placement policy,
//                 autoscaling, operator host events and fault injection
//                 for ONE cluster cell.
//   Scenario    — TrafficSpec + CellSpec glued back together (by
//                 inheritance, so every existing `s.tenant_count` /
//                 `s.cluster` access keeps compiling verbatim). This is the
//                 single-cluster API every test, bench, and golden uses.
//
// A Scenario is a plain value; fleet::Cluster runs it across its hosts
// through FleetEngine (engine.h), and fleet::Federation (federation.h)
// routes one TrafficSpec across K CellSpec cells. The built-in scenarios
// cover the consolidation questions the paper raises but only answers one
// tenant at a time: serverless cold-start storms, density sweeps to first
// OOM, and steady-state mixed-platform fleets.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/chaos.h"
#include "fleet/placement.h"
#include "platforms/platform.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace fleet {

/// Cluster topology: M identical hosts, each its own HostSystem shard with
/// private page cache, NVMe, NIC, kernel ftrace, and KSM stable tree.
/// Zero-valued knobs fall back to the core::HostSystemSpec defaults
/// (128 threads, 256 GiB RAM, 40 GbE).
struct ClusterTopology {
  int host_count = 1;
  int cpu_threads = 0;
  std::uint64_t ram_bytes = 0;
  double nic_gbps = 0.0;

  /// Named failure domains for correlated faults: a rack groups host
  /// indices (into the initial topology) that one Fault can crash or
  /// partition at a single instant.
  struct Rack {
    std::string name;
    std::vector<int> hosts;
  };
  std::vector<Rack> racks;

  /// The rack called `name`, or nullptr when there is none.
  const Rack* rack(const std::string& name) const;
};

/// Watermark-driven mid-run cluster resizing. The engine emits periodic
/// evaluation events on the one global deterministic queue; an evaluation
/// compares the fleet-wide resident fraction (resident bytes over RAM
/// capacity, live hosts only) against the watermarks and, cooldown
/// permitting, adds a fresh host (scale-out) or drains the live host with
/// the fewest active tenants (scale-in). Draining re-places that host's
/// tenants through placement + admission as churn-style re-arrivals.
struct AutoscaleSpec {
  bool enabled = false;
  /// Scale out when the fleet resident fraction exceeds this.
  double scale_out_watermark = 0.85;
  /// Scale in when it drops below this (hysteresis gap keeps it stable).
  double scale_in_watermark = 0.20;
  /// Minimum virtual time between two scaling actions. NOTE: typed
  /// sim::Nanos like every duration here — assign via sim::millis(...),
  /// not a bare number.
  sim::Nanos cooldown_ms = sim::millis(20);
  /// Spacing of evaluation events on the global queue.
  sim::Nanos eval_interval = sim::millis(10);
  /// Ceiling on live hosts; 0 disables scale-out. Each scale-out appends
  /// one host to the run's fleet::Cluster.
  int max_hosts = 0;
  /// Floor on live hosts for scale-in; must be at least 1. Scenarios that
  /// should never shrink below their starting topology set this to the
  /// initial host count (Scenario::autoscale_storm does).
  int min_hosts = 1;
};

/// A timed operator hook: explicitly add a fresh host or drain one at a
/// fixed virtual time, independent of the watermark autoscaler. Processed
/// on the same global deterministic event queue as tenant events.
struct HostEvent {
  enum class Kind { kAdd, kDrain };
  sim::Nanos time = 0;
  Kind kind = Kind::kAdd;
  /// Drain target host index; -1 lets the engine pick (fewest active
  /// tenants, ties to the highest index). Ignored for kAdd.
  int host = -1;
};

/// How tenant arrival times are drawn over the scenario's warm-up window.
enum class ArrivalPattern {
  kStorm,    // all tenants arrive within a short burst window
  kPoisson,  // exponential inter-arrivals at arrival_rate_per_sec
  kRamp,     // evenly spaced across the burst window
};

/// One entry of the platform mix; weights are normalized by the engine.
struct PlatformShare {
  platforms::PlatformId id;
  double weight = 1.0;
};

/// One entry of the workload mix; weights are normalized by the engine.
struct WorkloadShare {
  platforms::WorkloadClass workload;
  double weight = 1.0;
};

/// One entry of the program mix; weights are normalized by the engine.
/// `program` is a built-in syscall-program index (fleet/program.h), or -1
/// to keep that share of the population on statistical phases.
struct ProgramShare {
  int program = -1;
  double weight = 1.0;
};

/// One fully-drawn tenant: arrival instant, platform, private RNG stream
/// (already forked and advanced past the phase draws), and workload phases.
/// TrafficSpec::draw_population() materializes the whole population exactly
/// as FleetEngine used to draw it inline, so a federation can draw once
/// globally, route seeds to cells, and each cell replays its subset
/// byte-identically to a standalone run of the same tenants.
struct TenantSeed {
  sim::Nanos arrival = 0;
  platforms::PlatformId platform_id = platforms::PlatformId::kQemuKvm;
  sim::Rng rng{0};
  std::vector<platforms::WorkloadClass> phases;
  /// Built-in syscall program this tenant interprets instead of its
  /// statistical phases; -1 (the default, and the only value drawn when
  /// program_mix is empty) keeps the tenant statistical. Routed through
  /// federations verbatim like every other seed field.
  int program = -1;
};

/// Every TrafficSpec field but the explicit population (see TrafficSpec
/// below), split out so a federation can stamp the global knobs into each
/// cell's scenario without copying the global population.
struct TrafficKnobs {
  std::string name = "custom";

  // --- Tenant population --------------------------------------------------
  int tenant_count = 64;
  ArrivalPattern arrival = ArrivalPattern::kStorm;
  /// Burst/ramp window over which arrivals land (kStorm, kRamp; >= 0).
  sim::Nanos arrival_window = sim::millis(100);
  /// Mean arrival rate (kPoisson; positive and finite).
  double arrival_rate_per_sec = 100.0;

  // --- Platform and workload mix ------------------------------------------
  std::vector<PlatformShare> platform_mix;
  std::vector<WorkloadShare> workload_mix;
  /// Syscall-program mix (fleet/program.h). Empty (the default) keeps the
  /// whole population on statistical phases — and skips the per-tenant
  /// program draw entirely, so existing scenarios and goldens stay
  /// byte-identical. Non-empty: each tenant draws one share from its
  /// private RNG (after its phase draws); shares with program >= 0 run
  /// that built-in program instead of phases, shares with program == -1
  /// stay statistical.
  std::vector<ProgramShare> program_mix;

  /// Workload phases each tenant runs between boot and teardown.
  int phases_per_tenant = 3;
  /// Mean virtual duration of one phase before platform/contention scaling.
  sim::Nanos mean_phase_duration = sim::millis(250);
  /// Payload pushed through the NIC during a network phase.
  std::uint64_t net_bytes_per_phase = 8ull << 20;
  /// Bytes read through the host I/O path during an I/O phase.
  std::uint64_t io_bytes_per_phase = 32ull << 20;

  // --- Per-tenant memory ---------------------------------------------------
  /// Guest RAM reserved per hypervisor-backed tenant, at most
  /// kMaxGuestRamBytes.
  std::uint64_t guest_ram_bytes = 512ull << 20;
  /// Boot image pulled through the host page cache on every boot.
  std::uint64_t image_bytes = 128ull << 20;

  // --- Service-level objectives -------------------------------------------
  /// Cold-start budget: when positive, the report renders the fraction of
  /// boots (admission to serving, across all platforms and churn rounds)
  /// that finished within it. Zero disables the verdict line entirely, so
  /// budget-less runs stay byte-identical to the pinned goldens. NOTE:
  /// typed sim::Nanos like every duration here — assign via
  /// sim::millis(...), not a bare number.
  sim::Nanos boot_slo_ms = 0;
  /// Recovery budget: when positive, every crash fault's RecoveryVerdict
  /// renders pass/fail against this p99 time-to-re-place budget (and fails
  /// outright if any victim was lost), so chaos runs can gate like perf
  /// runs do. Zero disables the verdict, keeping budget-less chaos output
  /// byte-identical.
  sim::Nanos replace_slo_ms = 0;
  /// Per-op latency budget for syscall-program runs: when positive, every
  /// program op class renders a p99 PASS/FAIL verdict against it. Zero
  /// disables the verdict, keeping budget-less program output stable.
  /// NOTE: typed sim::Nanos like every duration here — assign via
  /// sim::millis(...), not a bare number.
  sim::Nanos op_slo_ms = 0;
  /// Fleet-wide per-op retry budget for syscall programs: an op issue whose
  /// service would blow op_slo_ms times out at the budget, backs off
  /// exponentially (op_backoff_base_ms * 2^(n-1) plus uniform jitter from
  /// the tenant RNG) and re-issues, up to this many times; a late
  /// completion with retries exhausted counts as a give-up. 0 = complete
  /// late (binary-failure behavior, byte-identical to the historical
  /// engine).
  int op_max_retries = 0;
  /// Base backoff between re-issues (sim::Nanos; see op_slo_ms note). Must
  /// be positive whenever op_max_retries > 0.
  sim::Nanos op_backoff_base_ms = 0;

  // --- Churn (long-horizon runs) ------------------------------------------
  /// Times each tenant re-enters the fleet after teardown: its resources
  /// are released, it idles churn_gap, then re-arrives and faces placement
  /// and admission again (possibly on a different host). 0 = single pass.
  int churn_rounds = 0;
  sim::Nanos churn_gap = sim::millis(100);

  // --- Reproducibility ----------------------------------------------------
  std::uint64_t seed = 0xF1EE'75EE'D000'0001ull;
};

/// Global policy half of a scenario: the traffic (who arrives when, running
/// what) and the service-level objectives it is held to. Shared verbatim by
/// every cell of a federation; contains nothing about hosts or topology.
struct TrafficSpec : TrafficKnobs {
  /// Explicit pre-drawn population. Empty (the default) means the engine
  /// draws tenant_count tenants from the seed via draw_population(); a
  /// federation router fills this with each cell's routed subset instead,
  /// and the engine then ignores tenant_count / arrival knobs entirely.
  std::vector<TenantSeed> population;

  /// Draw the full tenant population from the seed: arrival times first
  /// (then sorted), then per tenant a platform pick, a forked private RNG,
  /// and the workload phases off that fork — the exact draw sequence the
  /// engine performed inline before populations became explicit, so a run
  /// fed the returned seeds is byte-identical to one that draws its own.
  /// Runs validate(*this) first, so malformed traffic throws
  /// std::invalid_argument before any draw; the one check left inside the
  /// draw refuses Poisson arrivals that pass INT64_MAX nanoseconds, which
  /// depends on the drawn gaps.
  std::vector<TenantSeed> draw_population() const;
};

/// Cell-scoped mechanism half of a scenario: everything that describes ONE
/// cluster cell — its hosts, how tenants are placed on them, how it scales,
/// and what faults hit it. A federation carries K of these, one per cell,
/// possibly heterogeneous.
struct CellSpec {
  // --- Cluster ------------------------------------------------------------
  /// Host count and per-host shape; host_count 1 is a single-host run.
  ClusterTopology cluster;
  /// Which host an arriving tenant lands on (cluster runs only). The
  /// policy ranks every live host; admission walks the ranking and spills
  /// to the next candidate on refusal.
  PlacementKind placement = PlacementKind::kRoundRobin;
  /// Watermark-driven mid-run host add/drain (cluster runs only).
  AutoscaleSpec autoscale;
  /// Explicit timed add/drain hooks, evaluated alongside the autoscaler.
  std::vector<HostEvent> host_events;
  /// Fault injection (chaos.h): timed host crashes, network partitions,
  /// degrade-family faults, rack-correlated faults, and whole-cell
  /// outages. Resolved and validated at run start, then injected as
  /// first-class events on the same global deterministic queue as
  /// everything else.
  std::vector<Fault> faults;

  // --- Memory mechanism ----------------------------------------------------
  /// Deduplicate identical VM pages across tenants (Section 3.2's KSM).
  bool enable_ksm = true;
  /// Density-sweep mode: stop admitting at the first tenant whose projected
  /// resident set exceeds host RAM, and record it.
  bool stop_at_first_oom = false;
};

/// The one place scenario input is checked. Every entry point runs these
/// before it does any work — draw_population() the traffic half,
/// FleetEngine::run both halves, Federation::run the traffic half (each
/// cell's engine checks that cell's spec) — so the input these check
/// throws std::invalid_argument naming the first bad field, instead of UB
/// or another exception deep in a draw or the event loop.
///
/// Traffic: the arrival knobs, the three mixes, phases, churn, the retry
/// knobs, guest RAM and any explicit population (sorted by arrival,
/// platforms inside platform_mix, programs that exist).
void validate(const TrafficSpec& traffic);

/// Largest guest_ram_bytes validate() accepts: 32 TiB, the private KSM
/// digest span each tenant owns (2^24 fleet pages of 2 MiB). A larger
/// guest's private pages would alias its neighbours', and admission's
/// byte sums would near uint64 wrap.
constexpr std::uint64_t kMaxGuestRamBytes = 1ull << 45;

/// Cell, against an initial topology of `initial_hosts` hosts: autoscale,
/// host events, racks (whether or not a fault names them) and faults.
void validate(const CellSpec& cell, int initial_hosts);

/// The single-cluster scenario: one TrafficSpec applied to one CellSpec.
/// Inheritance keeps the pre-federation flat field access (`s.tenant_count`,
/// `s.cluster`, `s.placement`, ...) compiling unchanged everywhere.
struct Scenario : TrafficSpec, CellSpec {
  /// Serverless burst: many small tenants on boot-optimized platforms all
  /// arriving at once; one phase each, then teardown (Figures 13-15 at
  /// fleet scale).
  static Scenario coldstart_storm(int tenants = 64);

  /// Hypervisor tenants packed onto one host until RAM runs out, with KSM
  /// stretching density the way Section 3.2 describes.
  static Scenario density_sweep(int max_tenants = 192);

  /// Long-running mixed fleet: containers, microVMs and unikernels side by
  /// side, Poisson arrivals, all workload classes active.
  static Scenario steady_state_mix(int tenants = 48);

  /// Cold-start storm sharded across a cluster: a platform mix heavy on
  /// hypervisor-backed tenants so placement visibly moves KSM sharing.
  static Scenario cluster_storm(
      int tenants, int hosts,
      PlacementKind placement = PlacementKind::kRoundRobin);

  /// Long-horizon churn: the steady-state mix where every tenant tears
  /// down and re-enters the fleet `rounds` more times.
  static Scenario churn_mix(int tenants = 48, int rounds = 2);

  /// Cluster storm with the watermark autoscaler on: starts at `hosts`
  /// hosts and may grow to `max_hosts`, arrivals ramped so the autoscaler
  /// can track the pressure. With max_hosts == hosts this is the fixed-
  /// topology control for the same traffic.
  static Scenario autoscale_storm(int tenants, int hosts, int max_hosts);

  /// Headline chaos scenario: a RAM-tight autoscaled storm where one host
  /// crashes mid-storm. Its victims surge back through placement and
  /// admission on the survivors, the lost capacity pushes the resident
  /// fraction over the scale-out watermark, and the recovery verdict
  /// records time-to-re-place percentiles and the re-admission fraction
  /// against a declared replace_slo_ms budget.
  static Scenario crash_recovery(int tenants, int hosts, int max_hosts);

  /// Correlated failure: the hosts split into two named racks and one
  /// whole rack crashes at a single instant mid-storm.
  static Scenario rack_outage(int tenants, int hosts);

  /// Network chaos: a mid-run partition stalls NIC phases (and image-pull
  /// boots) on half the fleet; completions stretch by the overlap.
  static Scenario partition_storm(int tenants, int hosts);

  /// Syscall-program traffic: a cluster storm where most tenants interpret
  /// built-in programs (kv-server, image-pull-serve, log-writer,
  /// mmap-analytics) over the host kernel, with a statistical control
  /// share riding along and a per-op latency SLO declared.
  static Scenario program_storm(int tenants, int hosts);

  /// Headline graceful-degradation scenario: the program storm with the
  /// degrade-family faults layered on — a disk-degrade window on host 0, a
  /// memory-pressure unmerge storm on host 1, a partial partition cutting
  /// the {0, 1} pair, and a late crash on a RAM-tight fleet — with per-op
  /// retry/backoff enabled. The no-retry control (op_max_retries = 0, same
  /// fault schedule) shows strictly more SLO give-ups and lost tenants:
  /// degradation handled gracefully instead of failing wholesale.
  static Scenario degrade_storm(int tenants, int hosts);
};

}  // namespace fleet
