// PlacementPolicy: where does the next tenant land — and where next if
// that host refuses?
//
// The cluster splits scheduling into policy (this header) and mechanism
// (FleetEngine charging one shard's host models): a policy sees a snapshot
// of every live host's load and ranks them, nothing more. Placement runs
// once per arrival, consults no RNG, and admission control on the hosts
// remains authoritative — the engine walks the ranked candidate list in
// order and admits on the first host whose RAM accepts the tenant
// (retry-on-reject). Only when every live host refused is the arrival an
// OOM, attributed to the last host tried; an admission on any host other
// than the first-ranked one is a *spill*, counted per host
// (HostRollup::spill_out on the first choice, spill_in on the admitter) so
// policies can be compared on how much spilling they cause.
//
// Built-in policies:
//   round-robin     — cycle hosts in index order, ignoring load
//   least-loaded    — most free RAM first (ties: lowest index)
//   ksm-affinity    — co-locate tenants of the same platform image so their
//                     KSM digest runs (and boot image cache) merge; falls
//                     back to least-loaded while no co-tenant exists
//   least-pressure  — lowest weighted RAM/CPU/NIC pressure score first,
//                     using the HostPressure snapshot the engine maintains
//                     incrementally (free RAM, vCPU demand, active network
//                     phases, tenant count)
//   pack-then-spill — fill the lowest-index host to a resident watermark
//                     before opening the next, maximizing KSM merge
//                     density; the retry walk turns watermark overshoot
//                     into a spill instead of an OOM
//
// The same shape recurs one level up: fleet::RoutingPolicy (federation.h)
// ranks *cells* for a global router exactly the way PlacementPolicy ranks
// hosts for a cluster. Both speak the RankingPolicy<State, Request>
// protocol below and reuse the IncrementalRanking / HeapWalkRanking
// indexed-heap machinery, so candidate selection is O(log M) over hosts
// and O(log K) over cells with one shared implementation.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/indexed_heap.h"
#include "platforms/platform.h"

namespace fleet {

enum class PlacementKind {
  kRoundRobin,
  kLeastLoaded,
  kKsmAffinity,
  kLeastPressure,
  kPackThenSpill,
};

std::string placement_kind_name(PlacementKind k);

/// All built-in policies, in a stable sweep order for benches and tests.
std::vector<PlacementKind> all_placement_kinds();

/// One host's runtime CPU/NIC pressure as the engine tracks it
/// incrementally: nothing here is recomputed from scratch at an arrival.
/// RAM (ram_cap_bytes/resident_bytes) and tenant count live on HostView
/// itself — one source of truth per quantity.
struct HostPressure {
  /// vCPUs currently demanded by in-flight boots and phases on this host.
  double cpu_demand = 0.0;
  int cpu_threads = 1;
  /// Tenants currently inside a network phase (sharing this host's NIC).
  int net_active = 0;
};

/// One host's load as the policy sees it at an arrival — together with
/// `pressure`, the full snapshot (free RAM, CPU demand, NIC activity,
/// tenant count) pressure-aware policies rank on. Only live
/// (non-draining) hosts appear in the snapshot.
struct HostView {
  int index = 0;
  std::uint64_t ram_cap_bytes = 0;
  /// Bytes currently charged against this host (non-KSM resident plus KSM
  /// backing pages).
  std::uint64_t resident_bytes = 0;
  int active_tenants = 0;
  /// Active tenants on this host running the arriving tenant's platform.
  int same_platform_tenants = 0;
  HostPressure pressure;
};

/// The arriving tenant, as much as a policy may know about it.
struct PlacementRequest {
  std::uint64_t tenant_id = 0;
  platforms::PlatformId platform_id = platforms::PlatformId::kNative;
  bool hypervisor_backed = false;
  std::uint64_t guest_ram_bytes = 0;
};

/// Request-independent per-host state for the incremental protocol: what
/// host_updated() pushes after an engine-side change. The same quantities
/// as HostView minus same_platform_tenants (which depends on the arriving
/// tenant; incremental policies track it via platform_count_changed).
struct HostState {
  int index = 0;
  std::uint64_t ram_cap_bytes = 0;
  std::uint64_t resident_bytes = 0;
  int active_tenants = 0;
  HostPressure pressure;
};

/// The shared incremental ranking protocol, generic over what is being
/// ranked: hosts inside one cluster (PlacementPolicy, StateT = HostState)
/// or whole cells inside a federation (RoutingPolicy, StateT = CellState).
///
/// Policies returning incremental() == true maintain target orderings
/// incrementally (indexed heaps updated from pushed state deltas) and
/// serve the admission walk through walk_begin()/walk_next() in
/// O(walk length * log N), instead of receiving a fresh O(N) snapshot and
/// sorting it per request. The caller pushes target_updated() after each
/// change, platform_count_changed() when a target's per-platform tenant
/// count moves, and target_removed() on a drain/outage. The emitted walk
/// order must be identical to the policy's snapshot-sort spec path
/// (rank_hosts / rank_cells on the concrete interfaces, pinned by
/// tests/placement_equivalence_test.cpp for the built-in placements).
template <typename StateT, typename RequestT>
class RankingPolicy {
 public:
  using State = StateT;
  using Request = RequestT;

  virtual ~RankingPolicy() = default;

  virtual std::string name() const = 0;

  /// Called once at the start of every run; clears any cursor state so
  /// identical runs make identical decisions.
  virtual void reset() {}

  /// True when this policy implements the incremental protocol.
  virtual bool incremental() const { return false; }

  /// Upsert one live target's state (also how new targets are introduced).
  virtual void target_updated(const State& state) { (void)state; }

  /// A target's active tenant count for one platform changed.
  virtual void platform_count_changed(int target,
                                      platforms::PlatformId platform,
                                      int count) {
    (void)target;
    (void)platform;
    (void)count;
  }

  /// The target was drained (host) or went dark (cell): drop it from
  /// every ordering.
  virtual void target_removed(int target) { (void)target; }

  /// Start a candidate walk for one request. Advances cursor state exactly
  /// like one snapshot-sort call.
  virtual void walk_begin(const Request& req) { (void)req; }

  /// Next candidate in ranked order, or -1 when every live target has been
  /// emitted. Only valid between walk_begin() calls.
  virtual int walk_next() { return -1; }
};

/// Host placement inside one cluster. The legacy host_updated/host_removed
/// spellings are kept as non-virtual aliases so engine and test callers
/// read naturally; implementations override the generic protocol names.
class PlacementPolicy : public RankingPolicy<HostState, PlacementRequest> {
 public:
  /// The snapshot-sort spec path, and the only method a custom policy MUST
  /// implement: rank hosts from most to least preferred, appending
  /// HostView::index values to `ranked` (which arrives cleared). `hosts`
  /// has one view per live host, in index order, and is never empty. The
  /// engine tries admission in ranked order. Must append a non-empty
  /// subset, each host at most once; hosts left unranked are simply never
  /// tried (that is how SingleShotPolicy emulates PR 3's no-retry
  /// placement). Policies that skip the incremental protocol
  /// (incremental() == false) are served O(M) snapshots through this path
  /// — slower, but the easiest way to write a one-off or test policy, and
  /// the executable spec the incremental walk is pinned against.
  virtual void rank_hosts(const PlacementRequest& req,
                          const std::vector<HostView>& hosts,
                          std::vector<int>& ranked) = 0;

  /// Convenience: the most-preferred host (front of rank_hosts). Advances
  /// any cursor state exactly like one rank_hosts call.
  int place(const PlacementRequest& req, const std::vector<HostView>& hosts);

  void host_updated(const HostState& state) { target_updated(state); }
  void host_removed(int host) { target_removed(host); }
};

std::unique_ptr<PlacementPolicy> make_placement(PlacementKind kind);

// --- Shared incremental machinery ----------------------------------------
// Base must be a concrete interface deriving RankingPolicy (PlacementPolicy
// or RoutingPolicy); these templates supply the state bookkeeping and heap
// walks on top of it.

/// Authoritative pushed per-target state, liveness, and the popped-
/// candidate list a lazy walk must restore before the next request.
/// Subclasses implement the ordering hooks (reset_orderings /
/// target_added / target_changed / target_dropped).
template <typename Base>
class IncrementalRanking : public Base {
 public:
  using State = typename Base::State;

  bool incremental() const override { return true; }

  void reset() override {
    states_.clear();
    live_.clear();
    popped_.clear();
    reset_orderings();
  }

  void target_updated(const State& s) override {
    const auto i = static_cast<std::size_t>(s.index);
    if (i >= states_.size()) {
      states_.resize(i + 1);
      live_.resize(i + 1, 0);
    }
    const bool was_live = live_[i] != 0;
    states_[i] = s;
    live_[i] = 1;
    if (was_live) {
      target_changed(s.index);
    } else {
      target_added(s.index);
    }
  }

  void target_removed(int target) override {
    const auto i = static_cast<std::size_t>(target);
    if (i >= live_.size() || live_[i] == 0) {
      return;
    }
    live_[i] = 0;
    target_dropped(target);
  }

 protected:
  virtual void reset_orderings() = 0;
  virtual void target_added(int target) = 0;    // newly live: join orderings
  virtual void target_changed(int target) = 0;  // key changed: reposition
  virtual void target_dropped(int target) = 0;  // gone: leave the orderings

  bool is_live(int target) const {
    return static_cast<std::size_t>(target) < live_.size() &&
           live_[static_cast<std::size_t>(target)] != 0;
  }

  std::vector<State> states_;
  std::vector<char> live_;
  /// Targets emitted by the current walk (out of their heap until
  /// restored).
  std::vector<int> popped_;
};

/// Single-heap incremental policy: one comparator, one ordering. The walk
/// pops candidates lazily — O(log N) per candidate actually tried — and
/// walk_begin() re-inserts the previous walk's pops.
template <typename Base, typename Cmp>
class HeapWalkRanking : public IncrementalRanking<Base> {
 public:
  using Request = typename Base::Request;

  void walk_begin(const Request& req) override {
    (void)req;
    restore_popped();
  }

  int walk_next() override {
    if (heap_.empty()) {
      return -1;
    }
    const int target = heap_.pop();
    this->popped_.push_back(target);
    return target;
  }

 protected:
  explicit HeapWalkRanking(Cmp cmp) : heap_(cmp) {}

  void reset_orderings() override { heap_.clear(); }
  void target_added(int target) override { heap_.push(target); }
  void target_changed(int target) override {
    if (heap_.contains(target)) {  // popped targets rejoin with fresh state
      heap_.update(target);
    }
  }
  void target_dropped(int target) override {
    if (heap_.contains(target)) {
      heap_.erase(target);
    }
  }

  void restore_popped() {
    for (const int target : this->popped_) {
      if (this->is_live(target) && !heap_.contains(target)) {
        heap_.push(target);
      }
    }
    this->popped_.clear();
  }

  IndexedHeap<Cmp> heap_;
};

/// Wraps a policy but ranks only its first choice — PR 3's single-shot
/// placement semantics, where a refusal is an OOM even if another host
/// has room. For differential comparisons against the retry walk
/// (bench/fleet_scale's two-platform-storm records and the spill-chain
/// tests share this definition).
class SingleShotPolicy final : public PlacementPolicy {
 public:
  explicit SingleShotPolicy(std::unique_ptr<PlacementPolicy> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name() + "-single-shot"; }
  void reset() override { inner_->reset(); }
  void rank_hosts(const PlacementRequest& req,
                  const std::vector<HostView>& hosts,
                  std::vector<int>& ranked) override {
    ranked.push_back(inner_->place(req, hosts));
  }

 private:
  std::unique_ptr<PlacementPolicy> inner_;
};

}  // namespace fleet
