#include "fleet/placement.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "fleet/indexed_heap.h"

namespace fleet {

namespace {

// --- Ranking orders, each a functor over two States or two Views, so the
// heap walk and the rank() specification share one definition. ----------

template <typename T>
std::uint64_t free_bytes(const T& t) {
  return t.ram_cap_bytes > t.resident_bytes ? t.ram_cap_bytes - t.resident_bytes
                                            : 0;
}

/// Most free RAM first (least-loaded, least-loaded-cell).
struct MostFreeRam {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    const std::uint64_t fa = free_bytes(a);
    const std::uint64_t fb = free_bytes(b);
    if (fa != fb) {
      return fa > fb;
    }
    return a.index < b.index;
  }
};

/// Weighted pressure score: RAM dominates (it is the hard admission
/// limit), CPU demand stretches every in-flight duration, the NIC only
/// congests network phases.
constexpr double kRamWeight = 0.5;
constexpr double kCpuWeight = 0.35;
constexpr double kNicWeight = 0.15;

template <typename T>
double pressure_score(const T& h) {
  const double ram_used =
      h.ram_cap_bytes == 0
          ? 1.0
          : 1.0 - static_cast<double>(free_bytes(h)) /
                      static_cast<double>(h.ram_cap_bytes);
  const HostPressure& p = h.pressure;
  const double threads = static_cast<double>(std::max(1, p.cpu_threads));
  // CPU and NIC saturate at 1.0: past saturation everything on the host is
  // already stretched, and RAM — the hard admission limit — must keep
  // dominating the comparison.
  const double cpu = std::min(1.0, p.cpu_demand / threads);
  const double nic = std::min(1.0, static_cast<double>(p.net_active) / threads);
  return kRamWeight * ram_used + kCpuWeight * cpu + kNicWeight * nic;
}

/// Lowest pressure score first (least-pressure).
struct LeastPressure {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    const double sa = pressure_score(a);
    const double sb = pressure_score(b);
    if (sa != sb) {
      return sa < sb;
    }
    return a.index < b.index;
  }
};

/// Fraction of a host's RAM that pack-then-spill fills before opening the
/// next host. Below 1.0 so the pile leaves headroom for admission-time
/// variance; the retry walk absorbs overshoot as a spill, not an OOM.
constexpr double kPackWatermark = 0.9;

template <typename T>
bool above_watermark(const T& h) {
  return static_cast<double>(h.resident_bytes) >=
         kPackWatermark * static_cast<double>(h.ram_cap_bytes);
}

/// Hosts below the watermark in index order (so the lowest-index open
/// host soaks up every arrival until it crosses the line), then the full
/// hosts in index order as spill targets of last resort (pack-then-spill).
struct OpenHostsFirst {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    const bool fa = above_watermark(a);
    const bool fb = above_watermark(b);
    if (fa != fb) {
      return !fa;
    }
    return a.index < b.index;
  }
};

// --- Rules that are more than one order over a target's own state -------

/// Cycle the live targets in index order, one cursor step per arrival; the
/// retry walk continues around the cycle from wherever the cursor landed.
template <typename Base>
class RoundRobinRanking final : public Base {
 public:
  using State = typename Base::State;
  using View = typename Base::View;

  explicit RoundRobinRanking(std::string name) : name_(std::move(name)) {}

  std::string name() const override { return name_; }
  void reset() override {
    cursor_ = 0;
    live_.clear();
    walk_start_ = 0;
    walk_emitted_ = 0;
  }
  void target_updated(const State& s) override {
    const auto it = std::lower_bound(live_.begin(), live_.end(), s.index);
    if (it == live_.end() || *it != s.index) {
      live_.insert(it, s.index);
    }
  }
  void platform_count_changed(int, platforms::PlatformId, int) override {}
  void target_removed(int target) override {
    const auto it = std::lower_bound(live_.begin(), live_.end(), target);
    if (it != live_.end() && *it == target) {
      live_.erase(it);
    }
  }
  void walk_begin(const PlacementRequest&) override {
    walk_start_ = static_cast<std::size_t>(cursor_++ % live_.size());
    walk_emitted_ = 0;
  }
  int walk_next() override {
    if (walk_emitted_ >= live_.size()) {
      return -1;
    }
    return live_[(walk_start_ + walk_emitted_++) % live_.size()];
  }
  void rank(const PlacementRequest&, const std::vector<View>& views,
            std::vector<int>& ranked) override {
    const std::size_t n = views.size();
    const std::size_t start = static_cast<std::size_t>(cursor_++ % n);
    for (std::size_t k = 0; k < n; ++k) {
      ranked.push_back(views[(start + k) % n].index);
    }
  }

 private:
  std::string name_;
  std::uint64_t cursor_ = 0;
  std::vector<int> live_;  // sorted, mirrors the snapshot's order
  std::size_t walk_start_ = 0;
  std::size_t walk_emitted_ = 0;
};

/// Co-tenants of the arriving platform first, then most free RAM
/// (ksm-affinity over hosts, platform-affinity over cells): steer a
/// platform's tenants onto the fewest targets so their KSM digest runs and
/// boot image caches merge. With no co-tenant anywhere this degrades to
/// most-free-RAM, which also spreads the first tenant of each platform
/// onto the emptiest target before piles start forming. One heap per
/// platform, built at that platform's first walk.
template <typename Base>
class AffinityRanking final : public IncrementalRanking<Base> {
 public:
  using View = typename Base::View;

  using IncrementalRanking<Base>::IncrementalRanking;

  void platform_count_changed(int target, platforms::PlatformId platform,
                              int count) override {
    auto& per_target = counts_[platform];
    if (per_target.size() <= static_cast<std::size_t>(target)) {
      per_target.resize(static_cast<std::size_t>(target) + 1, 0);
    }
    per_target[static_cast<std::size_t>(target)] = count;
    const auto it = heaps_.find(platform);
    if (it != heaps_.end() && it->second.contains(target)) {
      it->second.update(target);
    }
  }

  void walk_begin(const PlacementRequest& req) override {
    if (!this->popped_.empty()) {  // only after a walk: its heap exists
      this->restore_popped(heaps_.at(walk_platform_));
    }
    walk_platform_ = req.platform_id;
    auto it = heaps_.find(walk_platform_);
    if (it == heaps_.end()) {
      it = heaps_.emplace(walk_platform_, IndexedHeap<Cmp>(
                                              Cmp{this, walk_platform_}))
               .first;
      for (std::size_t i = 0; i < this->live_.size(); ++i) {
        if (this->live_[i] != 0) {
          it->second.push(static_cast<int>(i));
        }
      }
    }
  }

  int walk_next() override {
    return this->pop_candidate(heaps_.at(walk_platform_));
  }

  void rank(const PlacementRequest&, const std::vector<View>& views,
            std::vector<int>& ranked) override {
    rank_by(views, ranked, [](const View& a, const View& b) {
      if (a.same_platform_tenants != b.same_platform_tenants) {
        return a.same_platform_tenants > b.same_platform_tenants;
      }
      return MostFreeRam{}(a, b);
    });
  }

 private:
  struct Cmp {
    const AffinityRanking* self;
    platforms::PlatformId platform;
    bool operator()(int a, int b) const {
      const int ca = self->count_for(platform, a);
      const int cb = self->count_for(platform, b);
      if (ca != cb) {
        return ca > cb;
      }
      return MostFreeRam{}(self->state_of(a), self->state_of(b));
    }
  };

  int count_for(platforms::PlatformId platform, int target) const {
    const auto it = counts_.find(platform);
    if (it == counts_.end() ||
        it->second.size() <= static_cast<std::size_t>(target)) {
      return 0;
    }
    return it->second[static_cast<std::size_t>(target)];
  }

  void reset_orderings() override {
    heaps_.clear();
    counts_.clear();
  }
  void target_added(int target) override {
    for (auto& [platform, heap] : heaps_) {
      heap.push(target);
    }
  }
  void target_changed(int target) override {
    for (auto& [platform, heap] : heaps_) {
      if (heap.contains(target)) {
        heap.update(target);
      }
    }
  }
  void target_dropped(int target) override {
    for (auto& [platform, heap] : heaps_) {
      if (heap.contains(target)) {
        heap.erase(target);
      }
    }
  }

  std::unordered_map<platforms::PlatformId, std::vector<int>> counts_;
  std::unordered_map<platforms::PlatformId, IndexedHeap<Cmp>> heaps_;
  platforms::PlatformId walk_platform_ = platforms::PlatformId::kNative;
};

}  // namespace

std::string placement_kind_name(PlacementKind k) {
  switch (k) {
    case PlacementKind::kRoundRobin:
      return "round-robin";
    case PlacementKind::kLeastLoaded:
      return "least-loaded";
    case PlacementKind::kKsmAffinity:
      return "ksm-affinity";
    case PlacementKind::kLeastPressure:
      return "least-pressure";
    case PlacementKind::kPackThenSpill:
      return "pack-then-spill";
  }
  return "unknown";
}

std::vector<PlacementKind> all_placement_kinds() {
  return {PlacementKind::kRoundRobin, PlacementKind::kLeastLoaded,
          PlacementKind::kKsmAffinity, PlacementKind::kLeastPressure,
          PlacementKind::kPackThenSpill};
}

std::unique_ptr<PlacementPolicy> make_placement(PlacementKind kind) {
  std::string name = placement_kind_name(kind);
  switch (kind) {
    case PlacementKind::kRoundRobin:
      return std::make_unique<RoundRobinRanking<PlacementPolicy>>(name);
    case PlacementKind::kLeastLoaded:
      return std::make_unique<HeapWalkRanking<PlacementPolicy, MostFreeRam>>(
          name);
    case PlacementKind::kKsmAffinity:
      return std::make_unique<AffinityRanking<PlacementPolicy>>(name);
    case PlacementKind::kLeastPressure:
      return std::make_unique<HeapWalkRanking<PlacementPolicy, LeastPressure>>(
          name);
    case PlacementKind::kPackThenSpill:
      return std::make_unique<HeapWalkRanking<PlacementPolicy, OpenHostsFirst>>(
          name);
  }
  throw std::invalid_argument("make_placement: unknown PlacementKind");
}

std::string routing_kind_name(RoutingKind k) {
  switch (k) {
    case RoutingKind::kRoundRobin:
      return "round-robin";
    case RoutingKind::kLeastLoadedCell:
      return "least-loaded-cell";
    case RoutingKind::kPlatformAffinity:
      return "platform-affinity";
  }
  return "unknown";
}

std::vector<RoutingKind> all_routing_kinds() {
  return {RoutingKind::kRoundRobin, RoutingKind::kLeastLoadedCell,
          RoutingKind::kPlatformAffinity};
}

std::unique_ptr<RoutingPolicy> make_routing(RoutingKind kind) {
  std::string name = routing_kind_name(kind);
  switch (kind) {
    case RoutingKind::kRoundRobin:
      return std::make_unique<RoundRobinRanking<RoutingPolicy>>(name);
    case RoutingKind::kLeastLoadedCell:
      return std::make_unique<HeapWalkRanking<RoutingPolicy, MostFreeRam>>(
          name);
    case RoutingKind::kPlatformAffinity:
      return std::make_unique<AffinityRanking<RoutingPolicy>>(name);
  }
  throw std::invalid_argument("make_routing: unknown RoutingKind");
}

}  // namespace fleet
