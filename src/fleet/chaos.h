// Fault injection for the fleet engine: the chaos half of the
// policy/mechanism split.
//
// A scenario's fault list (CellSpec::faults, a vector of Fault) is pure
// policy — *what* fails and when: timed host crashes, network partitions,
// degrade-family faults, rack-correlated faults and cell outages. The
// engine is the mechanism: resolved faults become first-class events on
// the one global deterministic queue (kHostCrash / kPartitionStart /
// kPartitionEnd in event_queue.h), so every failure scenario is
// byte-reproducible and can be pinned as a golden like any other run.
//
// Fault semantics (engine.cpp):
//  * Crash: every tenant on the host dies mid-phase with its in-flight
//    CPU/NIC demand released; the host's page cache and KSM stable tree
//    are lost wholesale; victims re-arrive on the survivors after
//    restart_delay (plus per-victim jitter) as a surge through placement
//    and admission. The report's recovery section records the verdict.
//  * Partition: NIC-bound completions on the affected hosts stall — work
//    makes no progress inside a partition window, so completion times
//    stretch by the overlap. Network phases always stall; boots stall only
//    when they actually pull the image (a fully cache-resident boot never
//    touches the wire).
//  * Rack fault: a named group of hosts (ClusterTopology::racks) crashes
//    or partitions at one instant — the correlated-failure case.
//  * Cell outage: every host of the initial topology crashes at one
//    instant — the whole failure domain goes dark. Standalone, every
//    victim is lost (there are no survivors to re-place onto); under a
//    Federation (federation.h) the stranded victims re-route through the
//    global router to another cell.
//
// Degraded-mode faults (the middle ground between alive and dead):
//  * Disk degrade: the host's NVMe runs at 1/multiplier throughput for a
//    window — page-cache-missing boots and disk-touching program ops
//    stretch by exactly the overlap at the degraded rate, instead of the
//    host failing outright.
//  * Memory pressure: a KSM unmerge storm — every merged page re-expands
//    to its backing copy at the fault instant (resident jumps by the full
//    density gain), and the stable tree is only re-merged by a scan at the
//    window end (or early, by the hypervisor's admission-time scan pass).
//    The spike can trip admission pressure and the autoscale watermark.
//  * Partial partition: a host *pair* loses reachability instead of a
//    host-wide NIC freeze — network program ops stall only when the
//    op's drawn peer is on the unreachable side, so retry with a fresh
//    peer draw can route around the cut.
// Degrade-family faults are judged in the report's render-gated
// `degraded:` section (DegradeVerdict), not the crash-recovery section.
//
// Partitions, disk degrades and partial partitions are one rule with
// different parameters: inside a FaultWindow, work progresses at
// 1/multiplier. A partition is a host-wide window with an infinite
// multiplier (the NIC freezes), a disk degrade a host-wide window with the
// fault's finite multiplier (the NVMe slows), and a partial partition an
// infinite window filtered to one peer (only traffic whose drawn far end
// is that peer freezes). build_windows resolves one kind into per-host
// lists before the run; stretched_completion applies the rule.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "sim/time.h"

namespace fleet {

struct CellSpec;

/// One injected fault, as the scenario author writes it.
struct Fault {
  enum class Kind {
    kCrash,
    kPartition,
    kCellOutage,
    kDiskDegrade,
    kMemPressure,
    kPartialPartition,
  };
  Kind kind = Kind::kCrash;
  /// Injection instant (virtual time).
  sim::Nanos time = 0;
  /// Target host index into the initial topology. Ignored when `rack` is
  /// set, which targets every member of that rack at the same instant, and
  /// for kCellOutage, which targets the entire initial topology.
  int host = 0;
  /// Named rack (ClusterTopology::racks) for correlated faults.
  std::string rack;
  /// Window length (kPartition and all degrade-family kinds).
  sim::Nanos duration = sim::millis(50);
  /// NVMe throughput divisor while a kDiskDegrade window is open: disk
  /// work progresses at 1/degrade speed. Must be >= 1.
  double degrade = 4.0;
  /// The other end of a kPartialPartition: the pair {host, peer} (or
  /// {rack members, peer}) loses reachability for the window. Must name a
  /// host distinct from the target.
  int peer = -1;
  /// Crash victims re-arrive this long after the crash instant...
  sim::Nanos restart_delay = sim::millis(20);
  /// ...plus a per-victim uniform draw in [0, restart_jitter), so the
  /// re-arrival surge spreads out the way real restart backoff does. The
  /// jitter stream is per-fault (derived from scenario seed and fault id),
  /// never the tenant's own RNG, so victim workloads replay identically.
  sim::Nanos restart_jitter = sim::millis(20);
};

/// True for the fault kinds judged by DegradeVerdicts (the `degraded:`
/// report section) instead of crash-recovery verdicts.
inline bool is_degrade_kind(Fault::Kind k) {
  return k == Fault::Kind::kDiskDegrade || k == Fault::Kind::kMemPressure ||
         k == Fault::Kind::kPartialPartition;
}

/// One fault resolved against a concrete topology: rack names expanded to
/// host lists, the whole schedule sorted by time with ids assigned in that
/// order. The id doubles as the event payload (Event::tenant) and is
/// stamped on the fault's verdict (RecoveryVerdict::fault or
/// DegradeVerdict::fault). It is not an index into FleetReport::recovery,
/// which holds crash-family verdicts only.
struct ResolvedFault {
  int id = 0;
  Fault::Kind kind = Fault::Kind::kCrash;
  sim::Nanos time = 0;
  std::vector<int> hosts;
  std::string rack;  // label only; empty for single-host faults
  sim::Nanos duration = 0;
  sim::Nanos restart_delay = 0;
  sim::Nanos restart_jitter = 0;
  double degrade = 0.0;  // kDiskDegrade multiplier
  int peer = -1;         // kPartialPartition far end
};

/// Expand the cell's fault schedule against the initial topology of
/// `initial_hosts` hosts: rack names and cell outages become host lists,
/// the schedule is sorted by time and ids follow. Checks nothing: the
/// caller must have run validate(cell, initial_hosts) (scenario.h) first.
std::vector<ResolvedFault> resolve_faults(const CellSpec& cell,
                                          int initial_hosts);

/// Half-open window [start, end) during which one host's work progresses
/// at 1/multiplier speed. An infinite multiplier (the default) freezes
/// progress outright. `peer` >= 0 limits the window to traffic whose drawn
/// far end is that host; -1 covers all of the host's work. `fault` is the
/// ResolvedFault id that opened the window, for DegradeVerdict attribution.
struct FaultWindow {
  sim::Nanos start = 0;
  sim::Nanos end = 0;
  double multiplier = std::numeric_limits<double>::infinity();
  int fault = -1;
  int peer = -1;
};

/// Per-host windows (indexed by initial-topology host index) for every
/// fault of `kind`: kPartition (frozen), kDiskDegrade (the fault's
/// multiplier) or kPartialPartition (frozen, one window per fault on each
/// end of the pair, peer set to the other end, sorted by start then peer).
/// A host's partition and disk-degrade windows are split into disjoint
/// pieces, sorted by start: where windows overlap the worst multiplier
/// wins and the earliest fault keeps attribution. Empty when the schedule
/// has no fault of `kind`, so fault-free runs pay nothing. Immutable for
/// the whole run.
std::vector<std::vector<FaultWindow>> build_windows(
    const std::vector<ResolvedFault>& faults, int initial_hosts,
    Fault::Kind kind);

/// Completion instant of `work` nanoseconds of progress starting at
/// `start`, where progress inside each window matching `peer` runs at
/// 1/multiplier: a degraded window stretches the completion by
/// (multiplier - 1) x the work done inside it, and a frozen one by the
/// whole overlap. Matching windows must be sorted by start; overlapping
/// ones must be frozen (build_windows guarantees both). If `fault` is
/// non-null it receives the id of the first window with multiplier > 1
/// that the work reached, or -1.
sim::Nanos stretched_completion(const std::vector<FaultWindow>& windows,
                                sim::Nanos start, sim::Nanos work,
                                int peer = -1, int* fault = nullptr);

}  // namespace fleet
