// FleetReport: everything a scenario run observed, rendered deterministically.
//
// Per-platform boot and phase latency distributions reuse stats::SampleSet
// (the same machinery behind the paper's CDF figures); the text rendering
// reuses stats::Table so bench output stays uniform; boot CDFs can be CSV-
// exported through core::export like every figure. The same seed and
// scenario always produce a byte-identical to_text().
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/figures.h"
#include "fleet/program.h"
#include "platforms/platform.h"
#include "sim/time.h"
#include "stats/sample_set.h"

namespace fleet {

/// Lifecycle record of one tenant. Under churn, arrival/boot_latency/
/// completion/admitted/completed describe the tenant's LAST round (each
/// re-arrival resets them), while phases_run and rounds_completed
/// accumulate across rounds. Deliberately flat and string-free: a
/// million-tenant run keeps one of these per tenant, so the platform is
/// identified by id (FleetReport::by_platform still carries the names).
struct TenantOutcome {
  std::uint64_t id = 0;
  platforms::PlatformId platform_id = platforms::PlatformId::kNative;
  sim::Nanos arrival = 0;
  sim::Nanos boot_latency = 0;  // admission to serving (end-to-end cold start)
  sim::Nanos completion = 0;    // teardown finished
  int phases_run = 0;
  int rounds_completed = 0;  // teardowns reached (1 + churn rounds completed)
  /// Index into FleetReport::recovery of the verdict whose fault
  /// permanently stranded this tenant — it was crashed off its host and
  /// then rejected on re-arrival; -1 for everyone else. A federation
  /// router uses this to re-route cell-outage victims to another cell.
  /// (A verdict index, not a fault id: degrade-family faults interleave
  /// ids without pushing recovery verdicts.)
  std::int32_t lost_to_fault = -1;
  bool admitted = false;
  bool completed = false;
};

/// Per-platform aggregate over all tenants that ran on it. tenants counts
/// distinct tenants; under churn, boot_ms/phase_ms collect one sample per
/// boot/phase including every re-admission round.
struct PlatformFleetStats {
  std::string platform;
  int tenants = 0;
  stats::SampleSet boot_ms;
  stats::SampleSet phase_ms;
};

/// Per-op-class slice of one program's rollup: repeat-expanded syscall
/// invocations and the per-step service-latency distribution (think-time
/// gaps excluded, so the sample is the op itself).
struct ProgramOpClassStats {
  std::uint64_t ops = 0;
  stats::SampleSet op_ms;
};

/// Per-program aggregate over all tenants that interpreted it. tenants
/// counts distinct tenants (crash/churn re-runs never double-count), and
/// the by_class slices are indexed by fleet::OpClass.
struct ProgramFleetStats {
  std::string program;
  int tenants = 0;
  std::array<ProgramOpClassStats, kOpClassCount> by_class;
};

/// KSM density outcome (hypervisor-backed tenants only).
struct FleetKsmStats {
  bool enabled = false;
  std::uint64_t advised_pages = 0;
  std::uint64_t backing_pages = 0;
  /// Advised pages sharing backing with at least one other VM (absolute
  /// count; shared_fraction times advised_pages).
  std::uint64_t shared_pages = 0;
  double density_gain = 1.0;
  double shared_fraction = 0.0;
};

/// Fleet-wide host attack surface: one ftrace window spanning the whole
/// scenario, scored like the per-platform HAP study (Section 4). For
/// cluster runs the fleet totals sum every host kernel's window.
struct FleetHapRollup {
  std::size_t distinct_functions = 0;
  std::uint64_t total_invocations = 0;
  double extended_hap = 0.0;
};

/// Everything one host shard observed during a cluster run: admission
/// outcomes, peaks, its own KSM stable tree and host-kernel HAP window,
/// and its host-model totals. hosts.size() == 1 for single-host runs.
struct HostRollup {
  int host = 0;
  int admitted = 0;
  /// Full-candidate-walk failures attributed to this host — i.e. this was
  /// the *last* host tried when every live host refused the tenant.
  /// Rejections short-circuited by a tripped stop_at_first_oom latch never
  /// consult a host and count only in the fleet-level total, so under that
  /// latch FleetReport::rejected can exceed the sum over hosts.
  int rejected = 0;
  /// Spilled admissions this host absorbed: tenants admitted here after a
  /// higher-ranked host refused them.
  int spill_in = 0;
  /// Tenants this host (as the placement's first choice) refused that were
  /// then admitted elsewhere. Fleet-wide, sum(spill_out) == sum(spill_in).
  int spill_out = 0;
  /// True once the host was drained (autoscale scale-in or an explicit
  /// HostEvent): its tenants were re-placed and it stopped taking new ones.
  bool drained = false;
  /// True once the host crashed (chaos.h kHostCrash): its tenants died
  /// mid-phase and its page cache and KSM stable tree were lost.
  bool crashed = false;
  /// NIC-bound completions on this host stretched by a partition window
  /// or a pair cut.
  int nic_stalls = 0;
  int peak_active = 0;
  std::uint64_t peak_resident_bytes = 0;
  FleetKsmStats ksm;
  FleetHapRollup hap;
  std::uint64_t page_cache_hits = 0;
  std::uint64_t page_cache_misses = 0;
  std::uint64_t nvme_bytes_read = 0;
};

class FleetReport {
 public:
  std::string scenario;
  std::uint64_t seed = 0;
  /// Placement policy name for cluster runs; empty on single-host runs,
  /// which keeps their to_text() byte-identical to the pinned goldens.
  std::string placement;

  std::vector<TenantOutcome> tenants;
  /// Keyed by platform name; std::map keeps rendering order deterministic.
  std::map<std::string, PlatformFleetStats> by_platform;
  /// Keyed by program name; empty for all-statistical runs, which keeps
  /// their to_text() byte-identical to the pinned goldens.
  std::map<std::string, ProgramFleetStats> by_program;
  /// One rollup per host shard, in host index order.
  std::vector<HostRollup> hosts;

  bool is_cluster() const { return hosts.size() > 1; }

  sim::Nanos makespan = 0;   // first arrival to last teardown
  int admitted = 0;
  int rejected = 0;
  int completed = 0;
  /// Admissions that landed on a host other than the placement's first
  /// choice (retry-on-reject walked past at least one refusal).
  int spills = 0;
  int peak_active = 0;
  double peak_cpu_demand = 0.0;  // vCPUs demanded / host threads, at peak
  /// First tenant whose admission would have exceeded host RAM; -1 if the
  /// scenario never hit the density wall.
  std::int64_t first_oom_tenant = -1;
  std::uint64_t peak_resident_bytes = 0;

  FleetKsmStats ksm;
  FleetHapRollup hap;

  /// Host-model totals charged during the run.
  std::uint64_t page_cache_hits = 0;
  std::uint64_t page_cache_misses = 0;
  std::uint64_t nvme_bytes_read = 0;

  /// Simulator events the engine's loop processed for this run. Fed to the
  /// scaling bench's events/sec metric; deliberately not rendered by
  /// to_text(), whose output is a compatibility surface.
  std::uint64_t events_processed = 0;

  /// Re-arrivals scheduled by tenant churn loops (scenario.churn_rounds).
  int churn_rearrivals = 0;

  /// Tenants a host drain re-placed through placement + admission as
  /// churn-style re-arrivals.
  int drain_migrations = 0;

  /// One entry per mid-run topology change, in event order. Empty for
  /// fixed-topology runs, which keeps their to_text() byte-identical to
  /// the pinned goldens.
  struct AutoscaleAction {
    sim::Nanos time = 0;
    /// "scale-out" / "scale-in" (watermark autoscaler), "add" / "drain"
    /// (explicit HostEvent hooks).
    std::string action;
    int host = 0;        // host added or drained
    int live_hosts = 0;  // live hosts after the action
    /// Fleet resident fraction (resident / capacity over live hosts) that
    /// the action was evaluated against, before it took effect.
    double resident_fraction = 0.0;
  };
  std::vector<AutoscaleAction> autoscale_timeline;

  /// Outcome of one crash-family fault (chaos.h kCrash / kPartition /
  /// kCellOutage), in fault-id order. Degrade-family faults take ids but
  /// push no verdict here, so once both families run the index is not the
  /// fault id: `fault` holds the id, and TenantOutcome::lost_to_fault
  /// holds the index. Crash verdicts carry the recovery SLO numbers: how
  /// many tenants died, how many made it back through placement +
  /// admission, how many were permanently lost, and the time-to-re-place
  /// distribution (crash instant to the victim's re-boot completing on a
  /// survivor). Partition verdicts record the window for the timeline.
  /// Empty for fault-free runs, which keeps their to_text() byte-identical
  /// to the pinned goldens.
  struct RecoveryVerdict {
    int fault = 0;
    std::string kind;  // "crash" / "cell-outage" / "partition"
    std::string rack;  // correlated-fault label; empty for single-host
    sim::Nanos time = 0;
    sim::Nanos duration = 0;    // partitions only
    std::vector<int> hosts;     // live hosts the fault actually hit
    int victims = 0;            // tenants killed mid-flight
    int readmitted = 0;         // victims re-admitted on a survivor
    int lost = 0;               // victims rejected on re-arrival
    /// Victims the crash caught *mid-boot*: their partial boot work is
    /// lost wholesale and the re-arrival starts a fresh boot from zero
    /// (a subset of `victims`). Rendered only when non-zero, keeping
    /// crash goldens without in-flight boots byte-identical.
    int boots_lost = 0;
    stats::SampleSet replace_ms;  // crash instant -> re-boot served

    /// Recovery-SLO verdict against a declared p99 time-to-re-place
    /// budget: pass iff no victim was permanently lost and the p99 (over
    /// victims that re-booted; vacuously true with none) fits the budget.
    /// Partition verdicts pass trivially — nobody dies in a partition.
    bool slo_pass(sim::Nanos budget) const {
      if (kind == "partition") {
        return true;
      }
      return lost == 0 &&
             (replace_ms.empty() ||
              replace_ms.percentile(99.0) <=
                  static_cast<double>(budget) / 1e6);
    }
  };
  std::vector<RecoveryVerdict> recovery;

  /// Fleet totals across every crash fault.
  int crash_victims = 0;
  int crash_readmitted = 0;
  int crash_lost = 0;
  /// Crash victims caught mid-boot (partial boot lost), fleet-wide.
  int boots_lost = 0;
  /// Time-to-re-place over every crash victim that booted again.
  stats::SampleSet replace_ms;
  /// NIC-bound completions stretched by a partition or a pair cut,
  /// fleet-wide.
  int nic_stalls = 0;

  /// Outcome of one degrade-family fault (chaos.h kDiskDegrade /
  /// kMemPressure / kPartialPartition), in fault-id order: the
  /// graceful-degradation ledger. Empty for runs without degrade faults,
  /// which keeps every pinned golden byte-identical.
  struct DegradeVerdict {
    int fault = 0;
    std::string kind;  // "disk-degrade" / "mem-pressure" / "partial-partition"
    std::string rack;  // correlated-fault label; empty for single-host
    sim::Nanos time = 0;
    sim::Nanos duration = 0;
    /// The fault's resolved targets, fixed before the run starts: a host
    /// that crashed before the fault still appears.
    std::vector<int> hosts;
    int peer = -1;           // partial-partition far end
    double multiplier = 0.0; // disk-degrade NVMe throughput divisor
    /// Memory pressure: bytes the KSM unmerge storm re-expanded at the
    /// fault instant (resident jumps by exactly this much).
    std::uint64_t resident_spike_bytes = 0;
    /// Distinct tenants that felt this fault: an op stretched or stalled
    /// by its window (disk degrade / partial partition), or resident on an
    /// unmerged host (mem pressure).
    int affected = 0;
    int retries = 0;   // op re-issues this fault's windows caused
    int give_ups = 0;  // ops that still blew the SLO with retries exhausted
    /// Added latency per affected op issue: stretched/stalled completion
    /// minus the undisturbed completion, in ms.
    stats::SampleSet added_ms;
  };
  std::vector<DegradeVerdict> degraded;

  /// Fleet totals across every program op issue, counted only while
  /// degraded accounting is active (degrade faults present or retry knobs
  /// set): op re-issues after an SLO timeout, and ops that completed past
  /// the SLO with no retries left.
  int op_retries = 0;
  int op_give_ups = 0;

  /// Fraction of crash victims that made it back through admission.
  double readmission_fraction() const {
    return crash_victims == 0
               ? 0.0
               : static_cast<double>(crash_readmitted) /
                     static_cast<double>(crash_victims);
  }

  /// Live (non-drained) hosts when the run ended.
  int final_host_count = 0;

  /// Distinct tenants whose final outcome was an admission. Unlike
  /// `admitted` (which counts admissions, including churn and
  /// drain-migration re-admissions), this never counts a tenant twice.
  int tenants_admitted() const {
    int n = 0;
    for (const TenantOutcome& t : tenants) {
      n += t.admitted ? 1 : 0;
    }
    return n;
  }

  /// Cold-start SLO budget copied from Scenario::boot_slo_ms; zero means
  /// no budget was set and no verdict line is rendered (keeping pinned
  /// goldens byte-identical).
  sim::Nanos boot_slo_ms = 0;

  /// Recovery budget copied from TrafficSpec::replace_slo_ms; zero means
  /// no budget was set and no pass/fail is rendered (keeping budget-less
  /// chaos output byte-identical).
  sim::Nanos replace_slo_ms = 0;

  /// Fleet recovery-SLO verdict: every fault's verdict passes the declared
  /// budget. True (vacuously) when no budget is set or no fault fired, so
  /// callers can gate on it unconditionally.
  bool recovery_slo_pass() const {
    if (replace_slo_ms <= 0) {
      return true;
    }
    for (const RecoveryVerdict& v : recovery) {
      if (!v.slo_pass(replace_slo_ms)) {
        return false;
      }
    }
    return true;
  }

  /// Per-op latency budget copied from TrafficSpec::op_slo_ms; zero means
  /// no budget was set and no PASS/FAIL is rendered (keeping budget-less
  /// program output byte-identical).
  sim::Nanos op_slo_ms = 0;

  /// Program op-latency SLO verdict: every rendered op class's p99 fits
  /// the declared budget. True (vacuously) when no budget is set or no
  /// program ran, so callers can gate on it unconditionally.
  bool program_slo_pass() const {
    if (op_slo_ms <= 0) {
      return true;
    }
    const double budget_ms = static_cast<double>(op_slo_ms) / 1e6;
    for (const auto& [name, prog] : by_program) {
      (void)name;
      for (const ProgramOpClassStats& cls : prog.by_class) {
        if (!cls.op_ms.empty() && cls.op_ms.percentile(99.0) > budget_ms) {
          return false;
        }
      }
    }
    return true;
  }

  /// Fraction of boots within the SLO budget, over every boot the run
  /// observed (all platforms, all hosts, every churn round). Only
  /// meaningful when boot_slo_ms > 0 and at least one boot completed.
  double boot_slo_fraction() const;

  /// Every boot latency across all platforms and hosts — the cluster-wide
  /// boot CDF. Filled on single-host runs too, but only rendered (and only
  /// exported via cluster_boot_cdf()) for cluster runs.
  stats::SampleSet cluster_boot_ms;

  /// The cluster-wide boot CDF in the figure-export shape.
  core::CdfSeries cluster_boot_cdf() const;

  /// Per-platform latency table plus fleet summary. Byte-identical for
  /// identical (scenario, seed).
  std::string to_text() const;

  /// Boot CDFs in the figure-export shape (for core::export_cdfs).
  std::vector<core::CdfSeries> boot_cdfs() const;
};

}  // namespace fleet
