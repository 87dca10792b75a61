// Heap-backed placement vs the sort-based specification.
//
// The built-in policies serve the engine's admission walk from
// incrementally maintained host orderings (indexed heaps updated by
// target_updated / platform_count_changed / target_removed deltas) instead
// of sorting a fresh snapshot per arrival. This sweep drives both faces of
// every built-in policy — the heap walk and rank() over an equivalent
// HostView snapshot — through randomized state churn, partial
// walks, and topology changes, and requires the emitted orders to be
// identical. Any divergence means the engine's lazy walk would place
// tenants differently than the specification, breaking byte-identical
// reports.
#include <gtest/gtest.h>

#include <vector>

#include "fleet/placement.h"
#include "sim/rng.h"

namespace {

using fleet::HostState;
using fleet::HostView;
using fleet::PlacementKind;
using fleet::PlacementRequest;
using platforms::PlatformId;

constexpr PlatformId kPlatforms[] = {PlatformId::kDocker,
                                     PlatformId::kFirecracker,
                                     PlatformId::kQemuKvm};

/// Reference model of the fleet the engine would publish: per-host load
/// plus per-platform tenant counts, with add/remove churn.
struct FleetModel {
  struct Host {
    bool live = false;
    HostState state;
    int counts[3] = {0, 0, 0};
  };
  std::vector<Host> hosts;

  int live_count() const {
    int n = 0;
    for (const auto& h : hosts) {
      n += h.live ? 1 : 0;
    }
    return n;
  }

  std::vector<HostView> snapshot(PlatformId platform) const {
    std::vector<HostView> views;
    for (const auto& h : hosts) {
      if (!h.live) {
        continue;
      }
      HostView v;
      v.index = h.state.index;
      v.ram_cap_bytes = h.state.ram_cap_bytes;
      v.resident_bytes = h.state.resident_bytes;
      v.active_tenants = h.state.active_tenants;
      for (std::size_t p = 0; p < 3; ++p) {
        if (kPlatforms[p] == platform) {
          v.same_platform_tenants = h.counts[p];
        }
      }
      v.pressure = h.state.pressure;
      views.push_back(v);
    }
    return views;
  }
};

void randomize_host(FleetModel::Host& h, sim::Rng& rng) {
  h.state.ram_cap_bytes = 64ull << 30;
  // Coarse buckets on purpose: collisions in free RAM, pressure score and
  // watermark state exercise every comparator's tie-breaking.
  h.state.resident_bytes = (rng.next_u64() % 9) * (8ull << 30);
  h.state.active_tenants = static_cast<int>(rng.next_u64() % 5);
  h.state.pressure.cpu_demand = static_cast<double>(rng.next_u64() % 4) * 32.0;
  h.state.pressure.cpu_threads = 128;
  h.state.pressure.net_active = static_cast<int>(rng.next_u64() % 3);
}

void publish(fleet::PlacementPolicy& policy, const FleetModel::Host& h) {
  policy.target_updated(h.state);
  for (std::size_t p = 0; p < 3; ++p) {
    policy.platform_count_changed(h.state.index, kPlatforms[p], h.counts[p]);
  }
}

void run_equivalence_sweep(PlacementKind kind, std::uint64_t seed) {
  sim::Rng rng(seed);
  // Two faces of the same policy kind. The sorter is only ever driven
  // through rank (the specification); the walker only through the walk
  // protocol. Separate instances keep cursor state (round
  // robin) advancing once per arrival on each side.
  const auto sorter = fleet::make_placement(kind);
  const auto walker = fleet::make_placement(kind);
  sorter->reset();
  walker->reset();

  FleetModel model;
  const int initial_hosts = 3 + static_cast<int>(rng.next_u64() % 6);
  for (int i = 0; i < initial_hosts; ++i) {
    FleetModel::Host h;
    h.live = true;
    h.state.index = i;
    randomize_host(h, rng);
    model.hosts.push_back(h);
    publish(*walker, h);
  }

  for (int arrival = 0; arrival < 300; ++arrival) {
    // Churn: load deltas, occasional drain, occasional new host.
    for (auto& h : model.hosts) {
      if (h.live && rng.chance(0.5)) {
        randomize_host(h, rng);
        const std::size_t p = rng.next_u64() % 3;
        h.counts[p] = static_cast<int>(rng.next_u64() % 4);
        publish(*walker, h);
      }
    }
    if (model.live_count() > 1 && rng.chance(0.08)) {
      for (auto& h : model.hosts) {
        if (h.live) {
          h.live = false;
          walker->target_removed(h.state.index);
          break;
        }
      }
    }
    if (rng.chance(0.10)) {
      FleetModel::Host h;
      h.live = true;
      h.state.index = static_cast<int>(model.hosts.size());
      randomize_host(h, rng);
      model.hosts.push_back(h);
      publish(*walker, h);
    }

    const PlatformId platform = kPlatforms[rng.next_u64() % 3];
    PlacementRequest req;
    req.platform_id = platform;

    std::vector<int> expected;
    sorter->rank(req, model.snapshot(platform), expected);

    walker->walk_begin(req);
    // Most walks stop early, like an admission that lands on the first or
    // second candidate; every few arrivals drain the whole ranking.
    const std::size_t want =
        rng.chance(0.3) ? expected.size()
                        : 1 + rng.next_u64() % expected.size();
    std::vector<int> actual;
    for (std::size_t i = 0; i < want; ++i) {
      const int host = walker->walk_next();
      ASSERT_GE(host, 0);
      actual.push_back(host);
    }
    if (want == expected.size()) {
      EXPECT_EQ(walker->walk_next(), -1) << "walk emitted extra hosts";
    }
    expected.resize(want);
    ASSERT_EQ(actual, expected)
        << fleet::placement_kind_name(kind) << " diverged at arrival "
        << arrival;
  }
}

class PlacementEquivalence
    : public ::testing::TestWithParam<PlacementKind> {};

TEST_P(PlacementEquivalence, HeapWalkMatchesSortedRanking) {
  run_equivalence_sweep(GetParam(), 0x91ACEull);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PlacementEquivalence,
    ::testing::ValuesIn(fleet::all_placement_kinds()),
    [](const ::testing::TestParamInfo<PlacementKind>& info) {
      std::string name = fleet::placement_kind_name(info.param);
      for (auto& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

TEST(PlacementEquivalenceSeeds, MultipleSeedsAllPolicies) {
  for (const auto kind : fleet::all_placement_kinds()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      run_equivalence_sweep(kind, 0xB10C'0000ull + seed);
    }
  }
}

}  // namespace
