// Ranking policies: where does the next tenant land — and where next if
// that target refuses?
//
// One policy layer ranks targets at both levels of the fleet: a
// PlacementPolicy ranks the hosts of one cluster for FleetEngine (the
// mechanism charging one shard's host models), and a RoutingPolicy ranks
// the cells of a federation for its global router (federation.h). Both
// speak the RankingPolicy protocol below: the caller pushes each target's
// load whenever it changes, and per arrival pulls a candidate walk. Ranking
// consults no RNG, and admission control on the targets remains
// authoritative — the engine walks the candidates in order and admits on
// the first host whose RAM accepts the tenant (retry-on-reject). Only when
// every live host refused is the arrival an OOM, attributed to the last
// host tried; an admission on any host other than the first candidate is a
// *spill*, counted per host (HostRollup::spill_out on the first choice,
// spill_in on the admitter) so policies can be compared on how much
// spilling they cause.
//
// Built-in host placements:
//   round-robin     — cycle hosts in index order, ignoring load
//   least-loaded    — most free RAM first (ties: lowest index)
//   ksm-affinity    — co-locate tenants of the same platform image so their
//                     KSM digest runs (and boot image cache) merge; falls
//                     back to least-loaded while no co-tenant exists
//   least-pressure  — lowest weighted RAM/CPU/NIC pressure score first,
//                     from the HostPressure the engine pushes (free RAM,
//                     vCPU demand, active network phases)
//   pack-then-spill — fill the lowest-index host to a resident watermark
//                     before opening the next, maximizing KSM merge
//                     density; the retry walk turns watermark overshoot
//                     into a spill instead of an OOM
//
// The built-in cell routings are the first three rules over cells (see
// RoutingKind). Each rule has one implementation, templated over the
// domain; the load-aware rules walk indexed heaps, O(log N) per candidate
// tried. Each rule also states its order as rank(), a sort of a snapshot
// of every live target; the tests pin the walk against it, and no arrival
// pays for that sort.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
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

enum class RoutingKind {
  kRoundRobin,       // cycle cells in index order, ignoring load
  kLeastLoadedCell,  // most aggregate free RAM first (ties: lowest index)
  kPlatformAffinity, // co-locate a platform's tenants in few cells so each
                     // cell's KSM digests and boot image caches merge;
                     // falls back to least-loaded while no co-tenant exists
};

std::string routing_kind_name(RoutingKind k);

/// All built-in routing policies, in a stable sweep order.
std::vector<RoutingKind> all_routing_kinds();

/// One host's runtime CPU/NIC pressure as the engine tracks it
/// incrementally: nothing here is recomputed from scratch at an arrival.
/// RAM (ram_cap_bytes/resident_bytes) and tenant count live on HostState
/// itself — one source of truth per quantity.
struct HostPressure {
  /// vCPUs currently demanded by in-flight boots and phases on this host.
  double cpu_demand = 0.0;
  int cpu_threads = 1;
  /// Tenants currently inside a network phase (sharing this host's NIC).
  int net_active = 0;
};

/// One live host's load, as the engine pushes it (target_updated) after
/// every change. Per-platform tenant counts travel separately, through
/// platform_count_changed.
struct HostState {
  int index = 0;
  std::uint64_t ram_cap_bytes = 0;
  /// Bytes currently charged against this host (non-KSM resident plus KSM
  /// backing pages).
  std::uint64_t resident_bytes = 0;
  int active_tenants = 0;
  HostPressure pressure;
};

/// One row of the snapshot PlacementPolicy::rank orders: HostState plus
/// the one request-dependent quantity.
struct HostView : HostState {
  /// Active tenants on this host running the arriving tenant's platform.
  int same_platform_tenants = 0;
};

/// One cell's load as the router tracks it: aggregate free RAM projected
/// from routed-tenant estimates, never a peek inside the cell's engine.
struct CellState {
  int index = 0;
  /// Aggregate RAM across the cell's initial hosts (admission-effective:
  /// honors host_ram_override_bytes).
  std::uint64_t ram_cap_bytes = 0;
  /// Projected resident bytes of every tenant currently routed here.
  std::uint64_t resident_bytes = 0;
  int active_tenants = 0;
};

/// One row of the snapshot RoutingPolicy::rank orders.
struct CellView : CellState {
  /// Tenants of the arriving tenant's platform currently routed here.
  int same_platform_tenants = 0;
};

/// The arriving tenant, as much as a policy may know about it: hosts and
/// cells are ranked for the same request.
struct PlacementRequest {
  platforms::PlatformId platform_id = platforms::PlatformId::kNative;
};

/// The ranking protocol, generic over what is ranked: hosts inside one
/// cluster (PlacementPolicy) or whole cells inside a federation
/// (RoutingPolicy). The caller pushes target_updated() after each change,
/// platform_count_changed() when a target's per-platform tenant count
/// moves, and target_removed() on a drain, crash or outage. Per arrival it
/// calls walk_begin() and then walk_next() until a target admits or the
/// walk ends.
template <typename StateT, typename ViewT>
class RankingPolicy {
 public:
  using State = StateT;
  using View = ViewT;

  // Not copyable: the heap comparators of the built-in rules hold `this`.
  RankingPolicy() = default;
  RankingPolicy(const RankingPolicy&) = delete;
  RankingPolicy& operator=(const RankingPolicy&) = delete;
  virtual ~RankingPolicy() = default;

  virtual std::string name() const = 0;

  /// Called once at the start of every run: forgets every target and any
  /// cursor, so identical runs make identical decisions.
  virtual void reset() = 0;

  /// Upsert one live target's state (also how new targets join).
  virtual void target_updated(const State& state) = 0;

  /// A target's active tenant count for one platform changed.
  virtual void platform_count_changed(int target,
                                      platforms::PlatformId platform,
                                      int count) = 0;

  /// The target was drained (host) or went dark (host crash, cell
  /// outage): it is never emitted again.
  virtual void target_removed(int target) = 0;

  /// Start a candidate walk for one request. Advances any cursor by one
  /// arrival.
  virtual void walk_begin(const PlacementRequest& req) = 0;

  /// Next candidate, or -1 when the walk is over. Emits live targets only,
  /// each at most once, and at least one per walk; the caller may stop
  /// early.
  virtual int walk_next() = 0;

  /// The specification of the walk order: append View::index values from
  /// most to least preferred to `ranked` (which arrives cleared). `views`
  /// has one row per live target, in index order, and is never empty. A
  /// walk after the same pushes emits exactly this list. Advances any
  /// cursor like one walk_begin().
  virtual void rank(const PlacementRequest& req, const std::vector<View>& views,
                    std::vector<int>& ranked) = 0;

  /// Convenience: the front of rank(). Throws std::logic_error when rank()
  /// ranked nothing.
  int first_choice(const PlacementRequest& req,
                   const std::vector<View>& views) {
    std::vector<int> ranked;
    rank(req, views, ranked);
    if (ranked.empty()) {
      throw std::logic_error(name() + ": rank() ranked nothing");
    }
    return ranked.front();
  }
};

/// Host placement inside one cluster.
using PlacementPolicy = RankingPolicy<HostState, HostView>;

/// Cell selection for a federation's global router, which routes only
/// through the built-in policies.
using RoutingPolicy = RankingPolicy<CellState, CellView>;

std::unique_ptr<PlacementPolicy> make_placement(PlacementKind kind);
std::unique_ptr<RoutingPolicy> make_routing(RoutingKind kind);

// --- Shared heap machinery -------------------------------------------------
// Base is PlacementPolicy or RoutingPolicy; these templates supply the
// state bookkeeping and heap walks on top of it.

/// Sort a snapshot by `less` (which must totally order ties, e.g. by
/// index) and append the ranked View::index values to `ranked`. Sorts
/// inside `ranked` itself, without a scratch allocation.
template <typename View, typename Less>
void rank_by(const std::vector<View>& views, std::vector<int>& ranked,
             Less less) {
  const auto first = static_cast<std::ptrdiff_t>(ranked.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    ranked.push_back(static_cast<int>(i));
  }
  std::sort(ranked.begin() + first, ranked.end(), [&](int a, int b) {
    return less(views[static_cast<std::size_t>(a)],
                views[static_cast<std::size_t>(b)]);
  });
  for (auto it = ranked.begin() + first; it != ranked.end(); ++it) {
    *it = views[static_cast<std::size_t>(*it)].index;
  }
}

/// Authoritative pushed per-target state, liveness, and the popped-
/// candidate list a lazy walk must restore before the next request.
/// Subclasses implement the ordering hooks (reset_orderings /
/// target_added / target_changed / target_dropped).
template <typename Base>
class IncrementalRanking : public Base {
 public:
  using State = typename Base::State;

  explicit IncrementalRanking(std::string name) : name_(std::move(name)) {}

  std::string name() const override { return name_; }

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

  const State& state_of(int target) const {
    return states_[static_cast<std::size_t>(target)];
  }

  /// Walk step: pop the heap's best target and remember it, or -1.
  template <typename Heap>
  int pop_candidate(Heap& heap) {
    if (heap.empty()) {
      return -1;
    }
    const int target = heap.pop();
    popped_.push_back(target);
    return target;
  }

  /// Walk start: put the previous walk's still-live pops back in `heap`.
  template <typename Heap>
  void restore_popped(Heap& heap) {
    for (const int target : popped_) {
      if (is_live(target) && !heap.contains(target)) {
        heap.push(target);
      }
    }
    popped_.clear();
  }

  std::vector<State> states_;
  std::vector<char> live_;
  /// Targets emitted by the current walk (out of their heap until
  /// restored).
  std::vector<int> popped_;

 private:
  std::string name_;
};

/// A rule that is one total order over a target's own state. `Order` is a
/// stateless functor comparing two States or two Views (tie-break on the
/// index): the walk pops an indexed heap ordered by it — O(log N) per
/// candidate actually tried, the previous walk's pops re-inserted by
/// walk_begin() — and rank() sorts the snapshot by it, so walk and
/// specification share one definition of the rule.
template <typename Base, typename Order>
class HeapWalkRanking final : public IncrementalRanking<Base> {
 public:
  using View = typename Base::View;

  explicit HeapWalkRanking(std::string name)
      : IncrementalRanking<Base>(std::move(name)), heap_(ByState{this}) {}

  void platform_count_changed(int, platforms::PlatformId, int) override {}

  void walk_begin(const PlacementRequest&) override {
    this->restore_popped(heap_);
  }

  int walk_next() override { return this->pop_candidate(heap_); }

  void rank(const PlacementRequest&, const std::vector<View>& views,
            std::vector<int>& ranked) override {
    rank_by(views, ranked, Order{});
  }

 private:
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

  struct ByState {
    const HeapWalkRanking* self;
    bool operator()(int a, int b) const {
      return Order{}(self->state_of(a), self->state_of(b));
    }
  };
  IndexedHeap<ByState> heap_;
};

/// Walks only its inner policy's first choice: a refusal is an OOM even if
/// another host has room. Pushed state goes to the inner policy. For
/// differential comparisons against the retry walk (bench/fleet_scale's
/// two-platform-storm records and the spill-chain tests share this
/// definition).
class SingleShotPolicy final : public PlacementPolicy {
 public:
  explicit SingleShotPolicy(std::unique_ptr<PlacementPolicy> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name() + "-single-shot"; }
  void reset() override { inner_->reset(); }
  void target_updated(const HostState& state) override {
    inner_->target_updated(state);
  }
  void platform_count_changed(int host, platforms::PlatformId platform,
                              int count) override {
    inner_->platform_count_changed(host, platform, count);
  }
  void target_removed(int host) override { inner_->target_removed(host); }
  void walk_begin(const PlacementRequest& req) override {
    inner_->walk_begin(req);
    emitted_ = false;
  }
  int walk_next() override {
    if (emitted_) {
      return -1;
    }
    emitted_ = true;
    return inner_->walk_next();
  }
  void rank(const PlacementRequest& req, const std::vector<HostView>& hosts,
            std::vector<int>& ranked) override {
    ranked.push_back(inner_->first_choice(req, hosts));
  }

 private:
  std::unique_ptr<PlacementPolicy> inner_;
  bool emitted_ = false;
};

}  // namespace fleet
