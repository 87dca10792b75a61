// FleetEngine: executes a Scenario against one or more core::HostSystem
// shards.
//
// The engine is the mechanism side of the policy/mechanism split: it merges
// N per-tenant sim::Clock timelines through a deterministic priority event
// queue (event_queue.h) into one global virtual timeline, and charges every
// tenant's activity to its *shard's* host models — page cache and NVMe for
// boot images and I/O phases, the NIC for network phases, KSM for
// hypervisor guest RAM, and the host kernel's ftrace for the per-host
// attack-surface rollup. Contention is modeled analytically per shard: CPU
// demand above a host's thread count stretches every in-flight duration on
// that host, and concurrent network phases share that host's NIC line rate.
//
// Cluster runs (fleet::Cluster, cluster.h) hand the engine M host shards
// plus a PlacementPolicy consulted once per arrival; the single global
// event queue keeps cross-host runs byte-reproducible. Single-host runs
// are the M=1 special case and produce byte-identical reports to the
// pre-cluster engine (pinned by tests/fleet_golden_test.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/host_system.h"
#include "fleet/chaos.h"
#include "fleet/event_queue.h"
#include "fleet/placement.h"
#include "fleet/program.h"
#include "fleet/report.h"
#include "fleet/scenario.h"
#include "hap/epss.h"
#include "mem/ksm.h"
#include "platforms/factory.h"
#include "sim/clock.h"
#include "sim/rng.h"

namespace fleet {

/// True for platforms whose tenants reserve full guest RAM (and can be
/// KSM-deduplicated); false for namespace-backed tenants that only pay
/// their process RSS.
bool is_hypervisor_backed(platforms::PlatformId id);

/// Supplies fresh hosts for mid-run scale-out. fleet::Cluster implements
/// this; a bare FleetEngine without one simply cannot grow (scale-out
/// requests are ignored).
class HostProvisioner {
 public:
  virtual ~HostProvisioner() = default;
  /// Create one more host (deterministic per-host RNG seed derived from
  /// its index) and return it; the engine builds a shard around it. The
  /// host must stay alive for the rest of the run.
  virtual core::HostSystem* provision_host() = 0;
};

class FleetEngine {
 public:
  explicit FleetEngine(core::HostSystem& host);

  /// Cluster mode: shard tenants across `hosts` with `policy` (non-owning;
  /// must outlive the engine). A policy is required when hosts.size() > 1.
  /// `provisioner` (optional, non-owning) enables mid-run scale-out.
  FleetEngine(const std::vector<core::HostSystem*>& hosts,
              PlacementPolicy* policy,
              HostProvisioner* provisioner = nullptr);

  /// Run one scenario to completion and return its report. Deterministic
  /// given (scenario, fresh hosts): the engine derives every random stream
  /// from scenario.seed, and placement consults no RNG.
  FleetReport run(const Scenario& scenario);

  /// Test hook: re-derive the fleet-resident and fleet-KSM sums from every
  /// shard at each peak check and compare them against the incremental
  /// counters note_peaks actually uses. A mismatch latches peak_audit_ok()
  /// to false. Costs O(M) per admission again, so tests only.
  void set_peak_audit(bool on) { peak_audit_ = on; }
  bool peak_audit_ok() const { return !peak_audit_failed_; }

 private:
  struct Tenant {
    std::uint64_t id = 0;
    platforms::PlatformId platform_id = platforms::PlatformId::kNative;
    platforms::Platform* platform = nullptr;
    sim::Clock clock;
    sim::Rng rng{0};
    std::vector<platforms::WorkloadClass> phases;
    int next_phase = 0;
    int host = 0;         // shard index assigned at (re-)arrival
    int rounds_left = 0;  // churn re-admissions still owed
    sim::Nanos phase_start = 0;
    TenantOutcome outcome;
    std::uint64_t resident_bytes = 0;  // non-KSM-managed share
    /// In-flight demand on the shard, stored by charge() as it is charged
    /// and given back by discharge(): vCPUs, and one NIC slot when on_nic.
    double vcpus = 0.0;
    /// What the charge is for. Only a crash reads it: a victim caught
    /// mid-boot counts as a lost boot.
    enum class InFlight {
      kNone,
      kBoot,
      kPhase,
      kProgram
    } in_flight = InFlight::kNone;
    bool on_nic = false;
    bool ksm_registered = false;
    bool counted_in_stats = false;  // already in its platform's tenant count
    /// Admitted and not yet released (teardown or drain migration).
    bool holds_resources = false;
    /// Built-in syscall program this tenant interprets (fleet/program.h);
    /// -1 = statistical phases. Copied from the TenantSeed.
    int program = -1;
    /// Interpreter cursor: current op index and whole-list repetitions
    /// still owed. Both reset when a boot completes, so a crash victim's
    /// re-boot restarts its program from the top (the cursor is lost with
    /// the host).
    int prog_op = 0;
    int prog_loops_left = 0;
    /// Service time of the in-flight op, stashed so its completion records
    /// the sample the start measured. Excludes the op's think gap.
    sim::Nanos prog_service = 0;
    /// CPU contention factor captured at the admitting arrival, applied by
    /// the deferred kBootPhys event (cluster-capable runs only).
    double boot_factor = 1.0;
    /// Lifecycle generation; bumped by every re-arrival (requeue_arrival)
    /// so events still queued for the previous lifecycle are dropped.
    std::uint32_t epoch = 0;
    /// Fault id whose crash killed this tenant; -1 outside recovery. Set
    /// when a crash re-injects the victim's arrival, cleared when the
    /// recovery resolves (re-boot served -> replace_ms sample, or
    /// rejection -> permanently lost).
    int crash_fault = -1;
  };

  /// Per-host mechanism state: one HostSystem plus everything the engine
  /// charges against it. Single-host runs have exactly one shard.
  struct Shard {
    core::HostSystem* host = nullptr;
    /// False once drained or crashed: removed from the policy, so no walk
    /// emits it again; its rollup stays in the report.
    bool live = true;
    mem::Ksm ksm;
    std::unordered_map<platforms::PlatformId,
                       std::unique_ptr<platforms::Platform>>
        platforms;
    int active = 0;      // admitted, not yet torn down
    int net_active = 0;  // tenants currently in a network phase
    double cpu_demand = 0.0;  // vCPUs demanded by in-flight activity
    std::uint64_t non_ksm_resident = 0;
    std::uint64_t ram_cap = 0;
    /// Active tenants per platform, pushed to the policy through
    /// platform_count_changed.
    std::unordered_map<platforms::PlatformId, int> tenants_by_platform;
    HostRollup rollup;
    std::uint64_t cache_hits0 = 0;   // host-model counters at run start
    std::uint64_t cache_misses0 = 0;
    std::uint64_t nvme_read0 = 0;

    /// Resident bytes actually charged against this host's RAM right now.
    std::uint64_t resident_bytes() const;

    /// CPU contention multiplier at this host's current activity.
    double cpu_factor() const;
  };

  /// Pop-side dispatch: count the event, advance the global clock and run
  /// the one handler for its kind (then seed the next lazy arrival).
  void process_event(const Event& e, const Scenario& s,
                     const std::vector<sim::Nanos>& arrivals,
                     sim::Nanos& last_event);

  // Lifecycle handlers.
  void handle_arrival(Tenant& t, const Scenario& s);
  void handle_boot_phys(Tenant& t, const Scenario& s);
  void handle_boot_done(Tenant& t, const Scenario& s);
  void handle_phase_done(Tenant& t, const Scenario& s);
  void handle_teardown(Tenant& t, const Scenario& s);

  /// Re-enter t at `at` (churn, drain migration, crash recovery) as a new
  /// lifecycle generation: per-round outcome fields restart and the
  /// arrival faces placement and admission again.
  void requeue_arrival(Tenant& t, sim::Nanos at);
  /// Fleet-level rejection of t's arrival. A crash victim rejected here is
  /// permanently lost; its outcome names the verdict (lost_to_fault) so a
  /// router can re-route it. Re-admission is counted where the re-boot
  /// completes, so a victim drain-migrated mid-recovery counts once.
  void reject(Tenant& t);
  /// The exit record every tenant that ran its work pays: one more
  /// trace-visible startup-class interaction and a 2-8 ms gap, then the
  /// kTeardown event.
  void begin_teardown(Tenant& t);

  /// The boot's shard-local physics: platform boot sampling, the image
  /// pull through the shard's page cache / NVMe, contention stretching by
  /// `factor`. Advances t.clock, sets t.outcome.boot_latency, returns the
  /// completion instant. Shared verbatim by the inline single-host path
  /// (factor = the shard's live cpu_factor) and the deferred kBootPhys
  /// path (factor captured at the arrival).
  sim::Nanos boot_physics(Shard& sh, Tenant& t, const Scenario& s,
                          double factor);

  /// Begin tenant t's next workload phase: account its demand, charge its
  /// cost, and schedule the completion event.
  void start_phase(Tenant& t, platforms::WorkloadClass w, const Scenario& s);

  /// Begin the program op at t.prog_op: account its demand, dispatch it
  /// through the host kernel and the shard's device models, and schedule
  /// the kProgramStep completion.
  void start_program_op(Tenant& t, const Scenario& s);
  /// One program op completed: release its demand, record the latency
  /// sample into the per-program rollup, and advance the interpreter
  /// cursor (next op, next loop, or the teardown path).
  void handle_program_step(Tenant& t, const Scenario& s);

  /// How a degrade-family fault disturbed one op issue, reported by
  /// program_op_cost for DegradeVerdict attribution.
  struct OpImpact {
    int fault = -1;        // first disturbing fault id; -1 = undisturbed
    sim::Nanos added = 0;  // completion delay vs the undisturbed cost
  };

  /// Virtual duration of one program op: HostKernel::invoke (CPU cost +
  /// ftrace hits) plus payload physics on the shard's page cache / NVMe /
  /// NIC, stretched by CPU contention; network ops wait out partition
  /// windows by exact overlap, disk-touching ops stretch through degrade
  /// windows, and network ops draw a peer that may sit across a partial
  /// partition. `impact` (optional) receives the degrade attribution.
  sim::Nanos program_op_cost(Tenant& t, const ProgramOp& op,
                             OpImpact* impact = nullptr);

  /// Outcome of one op *issue* (the retry loop around program_op_cost):
  /// how many re-issues it took, whether it still blew the SLO with
  /// retries exhausted, and which fault gets the ledger entry.
  struct OpIssue {
    sim::Nanos service = 0;  // total issue latency: timeouts+backoffs+final
    int fault = -1;          // degrade fault attributed (first disturber)
    int retries = 0;
    bool give_up = false;
    double added_ms = -1.0;  // < 0: no added-latency sample
  };

  /// Run the retry/backoff loop for the op at t.prog_op: compute the cost,
  /// and while it would blow the op SLO with retries left, time out at the
  /// budget, back off exponentially (jitter from t.rng) and re-issue.
  /// Advances t.clock through the whole issue (timeouts, backoffs, and the
  /// final attempt); the caller adds only the op's think gap.
  OpIssue issue_program_op(Tenant& t, const ProgramOp& op, const Scenario& s);

  /// Fold one issue's outcome into the fleet totals and its fault's
  /// DegradeVerdict.
  void note_op_outcome(std::uint64_t tenant_id, const OpIssue& issue);

  /// Admission control against the tenant's shard: would its resident set
  /// still fit? Read-only on rejection — KSM fit is decided by
  /// mem::Ksm::probe_runs, and only an accepted host mutates its tree.
  bool admit(Shard& sh, Tenant& t, const Scenario& s);

  /// Push one live shard's current state to the policy (no-op without
  /// one). Called after every event that changed the shard.
  void publish_host(Shard& sh);

  /// Tell the policy that `sh`'s tenant count for `id` moved.
  void notify_platform_count(Shard& sh, platforms::PlatformId id);

  /// Charge `vcpus` (plus one NIC slot when `nic`) to sh and store the
  /// charge on t, which holds none.
  static void charge(Shard& sh, Tenant& t, Tenant::InFlight what,
                     double vcpus, bool nic);
  /// Give back exactly what t's charge put on sh (nothing when idle).
  static void discharge(Shard& sh, Tenant& t);

  /// Release everything tenant t currently charges against shard sh
  /// (in-flight CPU/NIC demand, KSM registration, resident bytes, the
  /// shard's active counters) plus the fleet-global bookkeeping (active_,
  /// placement notification, fleet counters). Shared by teardown and drain
  /// migration.
  void release_tenant(Shard& sh, Tenant& t);

  // Mid-run topology changes.
  int add_shard(const Scenario& s);
  void drain_shard(int index, sim::Nanos now);
  /// Take a drained or crashed shard out of placement for good; its rollup
  /// stays in the report.
  void retire_shard(int index);
  int pick_drain_host() const;  // fewest active tenants, ties: highest index
  void record_autoscale(sim::Nanos time, const std::string& action, int host,
                        double resident_fraction);
  double resident_fraction() const;  // over live hosts
  void handle_host_event(const Event& e, const Scenario& s);
  void handle_autoscale_eval(sim::Nanos now, const Scenario& s);

  // Fault injection (chaos.h).
  void handle_fault(const Event& e, const Scenario& s);
  /// Kill every tenant on shard `index`: zero the host's in-flight demand,
  /// page cache and KSM stable tree wholesale, retire the host from
  /// placement, and re-inject the victims as jittered arrivals.
  void crash_shard(int index, const ResolvedFault& f, sim::Nanos now,
                   sim::Rng& frng, FleetReport::RecoveryVerdict& v);
  /// Duration of `total` ns of work begun at `begin` on `host`, stretched
  /// by that host's windows in `windows` (partitions_, degrades_ or pairs_)
  /// that match `peer`; `total` unchanged when none overlap. If `impact` is
  /// non-null and the work was stretched, the first slowing fault and the
  /// added delay are folded into it.
  static sim::Nanos stretch(
      const std::vector<std::vector<FaultWindow>>& windows, int host,
      sim::Nanos begin, sim::Nanos total, int peer = -1,
      OpImpact* impact = nullptr);
  /// stretch() for NIC work on sh: counts one stall in sh's rollup when a
  /// window actually held the work back.
  static sim::Nanos nic_stall(
      Shard& sh, const std::vector<std::vector<FaultWindow>>& windows,
      sim::Nanos begin, sim::Nanos total, int peer = -1,
      OpImpact* impact = nullptr);
  /// Read `bytes` of page-cache file `file` through sh's host: the misses
  /// are read from its NVMe (drawing from `rng`), and that service time is
  /// added to `device_ns`. Returns the miss count.
  static std::uint64_t read_through(Shard& sh, std::uint64_t file,
                                    std::uint64_t bytes, sim::Rng& rng,
                                    sim::Nanos& device_ns);

  /// Virtual duration of one workload phase, including platform profile
  /// scaling and charges to the shard's host models.
  sim::Nanos phase_cost(Tenant& t, platforms::WorkloadClass w,
                        const Scenario& s);

  /// Fold the current activity into the high-water marks: fleet-wide
  /// active/CPU/resident peaks (with the KSM snapshot at the resident
  /// peak) and shard sh's rollup peaks.
  void note_peaks(Shard& sh);

  /// Set up a freshly constructed or reset shard for this run: KSM tree,
  /// platform instances for the scenario mix, RAM cap, rollup identity.
  void init_shard(Shard& sh, int index, const Scenario& s);
  /// Start sh's per-run observation: its ftrace window and the page-cache
  /// and NVMe counter baselines its rollup is reported against.
  static void start_observing(Shard& sh);

  std::vector<Shard> shards_;
  PlacementPolicy* policy_ = nullptr;  // non-owning; required when M > 1
  HostProvisioner* provisioner_ = nullptr;  // non-owning; enables scale-out
  EventQueue queue_;
  sim::Clock global_clock_;
  /// Dense tenant table: ids are assigned 0..N-1, so the event loop indexes
  /// directly instead of hashing per event.
  std::vector<Tenant> tenants_;
  std::vector<mem::PageRun> run_scratch_;  // recycled guest-run storage
  hap::EpssModel epss_;
  FleetReport report_;

  /// by_platform stats resolved once per PlatformId (ids and names are 1:1
  /// per run), so boots and phases skip the string-keyed map lookup.
  /// std::map nodes are pointer-stable.
  static constexpr std::size_t kPlatformIdSlots = 16;
  static_assert(static_cast<std::size_t>(
                    platforms::PlatformId::kOsvFirecracker) <
                    kPlatformIdSlots,
                "grow kPlatformIdSlots when adding PlatformId enumerators");
  std::array<PlatformFleetStats*, kPlatformIdSlots> stats_by_id_{};

  /// by_program stats resolved once per built-in program id, mirroring
  /// stats_by_id_ for program boots and ops.
  static constexpr std::size_t kProgramIdSlots = 8;
  std::array<ProgramFleetStats*, kProgramIdSlots> pstats_by_id_{};

  /// Lazy arrival seeding: only the next initial arrival sits in the queue
  /// (with a pre-reserved seq so same-timestamp tie order is unchanged).
  /// When the density-stop latch trips, the unseeded tail is rejected in
  /// bulk without paying one event per tenant.
  int arrival_cursor_ = 0;          // tenant whose initial arrival is queued
  std::uint64_t arrival_seq_base_ = 0;
  bool latched_tail_ = false;       // bulk-rejected a post-latch tail
  sim::Nanos latched_tail_time_ = 0;  // last (bulk-rejected) arrival time

  int active_ = 0;  // fleet-wide admitted, not yet torn down
  sim::Nanos last_scale_ = 0;  // virtual time of the last autoscale action
  bool has_scaled_ = false;

  /// Resolved fault schedule for this run (chaos.h); empty when the
  /// scenario injects none. Written once before the loop starts, immutable
  /// after.
  std::vector<ResolvedFault> faults_;
  /// Per-host fault windows (chaos.h build_windows), one list per kind and
  /// immutable for the run: partitions freeze the host's NIC work,
  /// degrades slow its NVMe work, and pairs freeze network work whose drawn
  /// far end is the window's peer. Indexed by initial-topology host; hosts
  /// added mid-run are never fault targets. Each is empty when no fault of
  /// its kind is scheduled, so fault-free runs pay (and draw) nothing.
  std::vector<std::vector<FaultWindow>> partitions_;
  std::vector<std::vector<FaultWindow>> degrades_;
  std::vector<std::vector<FaultWindow>> pairs_;
  /// Fault id -> index into report_.recovery (crash kinds) or
  /// report_.degraded (degrade kinds); -1 for the other family. Neither
  /// verdict vector is indexable by fault id once the families interleave
  /// in one schedule.
  std::vector<int> recovery_slot_;
  std::vector<int> degraded_slot_;
  /// Degraded accounting is live for this run: a degrade-family fault is
  /// scheduled, or op retries are enabled. Gates every retry/give-up
  /// counter and the extra RNG draws behind them, so pre-existing
  /// scenarios stay byte-identical.
  bool degraded_accounting_ = false;
  /// Distinct tenants disturbed per degraded verdict. Finalized into
  /// DegradeVerdict::affected at run end.
  std::vector<std::set<std::uint64_t>> degrade_affected_;
  /// Live shard count, maintained by add_shard and retire_shard so the
  /// per-arrival zero-live-hosts check is O(1) instead of an O(M) scan.
  int live_hosts_ = 0;

  /// Fleet-wide resident/KSM sums, maintained incrementally at the only
  /// two mutation sites (admit and release_tenant) instead of re-summed
  /// over every shard per admission — the last O(M)-per-admission piece.
  /// Integer arithmetic, so note_peaks' peak snapshot is bit-identical to
  /// the summed form (set_peak_audit checks exactly that).
  std::uint64_t fleet_resident_ = 0;
  std::uint64_t fleet_ksm_advised_ = 0;
  std::uint64_t fleet_ksm_backing_ = 0;
  std::uint64_t fleet_ksm_shared_ = 0;

  /// Capture a shard's resident/KSM state before a mutation and fold the
  /// delta into the fleet counters after it (unsigned wraparound makes
  /// add-new-subtract-old exact for shrinking deltas too).
  struct FleetDelta {
    std::uint64_t resident, advised, backing, shared;
  };
  FleetDelta fleet_before(const Shard& sh) const;
  void fleet_apply(const Shard& sh, const FleetDelta& before);

  bool peak_audit_ = false;
  bool peak_audit_failed_ = false;

  /// Cluster-capable runs (more than one shard, autoscale, host events or
  /// faults) split each boot into a kBootPhys event at the admitting
  /// instant; plain single-host runs boot inline, as the goldens pin. The
  /// split fixes when a boot's sampling and image pull run relative to
  /// same-instant events, and every kBootPhys counts in events_processed,
  /// so cluster reports depend on it byte for byte.
  bool deferred_boot_ = false;
};

}  // namespace fleet
