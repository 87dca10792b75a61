// google-benchmark microbenchmarks of the framework's own primitives:
// RNG, statistics, ftrace recording, syscall dispatch, page cache, B+tree
// and KV-store operations. These guard the simulator's performance (the
// figure harnesses run hundreds of thousands of modeled operations).
#include <benchmark/benchmark.h>

#include "apps/btree.h"
#include "apps/kv_store.h"
#include "apps/ycsb.h"
#include "fleet/placement.h"
#include "hostk/host_kernel.h"
#include "hostk/page_cache.h"
#include "mem/ksm.h"
#include "sim/rng.h"
#include "stats/sample_set.h"
#include "stats/summary.h"

namespace {

void BM_RngNextU64(benchmark::State& state) {
  sim::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(BM_RngNextU64);

void BM_RngNormal(benchmark::State& state) {
  sim::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.normal());
  }
}
BENCHMARK(BM_RngNormal);

void BM_ZipfianNext(benchmark::State& state) {
  sim::Rng rng(1);
  sim::ZipfianGenerator zipf(static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.next(rng));
  }
}
BENCHMARK(BM_ZipfianNext)->Arg(1'000)->Arg(100'000);

void BM_SummaryAdd(benchmark::State& state) {
  stats::Summary summary;
  double x = 0.0;
  for (auto _ : state) {
    summary.add(x += 1.0);
  }
  benchmark::DoNotOptimize(summary.mean());
}
BENCHMARK(BM_SummaryAdd);

void BM_SampleSetPercentile(benchmark::State& state) {
  sim::Rng rng(3);
  stats::SampleSet samples;
  for (int i = 0; i < state.range(0); ++i) {
    samples.add(rng.next_double());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(samples.percentile(90));
  }
}
BENCHMARK(BM_SampleSetPercentile)->Arg(300)->Arg(10'000);

void BM_SyscallDispatch(benchmark::State& state) {
  hostk::HostKernel kernel;
  sim::Rng rng(5);
  const bool traced = state.range(0) != 0;
  if (traced) {
    kernel.ftrace().start();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.invoke(hostk::Syscall::kRead, rng));
  }
}
BENCHMARK(BM_SyscallDispatch)->Arg(0)->Arg(1);

void BM_PageCacheAccess(benchmark::State& state) {
  hostk::PageCache cache(64ull << 20);
  sim::Rng rng(7);
  for (auto _ : state) {
    const auto page = rng.next_u64() % 32'768;
    benchmark::DoNotOptimize(cache.access_range(1, page * 4096, 4096));
  }
}
BENCHMARK(BM_PageCacheAccess);

void BM_BtreeInsert(benchmark::State& state) {
  apps::BPlusTree tree;
  std::int64_t key = 0;
  for (auto _ : state) {
    tree.insert(key++, "value");
  }
  benchmark::DoNotOptimize(tree.size());
}
BENCHMARK(BM_BtreeInsert);

void BM_BtreeFind(benchmark::State& state) {
  apps::BPlusTree tree;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    tree.insert(i, "value");
  }
  sim::Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.find(rng.uniform_int(0, state.range(0) - 1)));
  }
}
BENCHMARK(BM_BtreeFind)->Arg(10'000)->Arg(100'000);

/// A KSM stable tree resembling a fleet host: `tenants` hypervisor guests
/// of three digest runs each (shared zero pages, per-image pages, private
/// pages) — the structure FleetEngine::admit probes on every trial.
mem::Ksm fleet_like_tree(int tenants) {
  mem::Ksm ksm;
  for (int t = 0; t < tenants; ++t) {
    const auto id = static_cast<std::uint64_t>(t);
    ksm.advise_runs(id, {{0x2E80'0000'0000'0000ull, 89},
                         {0xBA5E'0000'0000'0000ull, 32},
                         {0x7E4A'0000'0000'0000ull + (id << 24), 135}});
  }
  ksm.scan();
  return ksm;
}

std::vector<mem::PageRun> candidate_runs(std::uint64_t id) {
  return {{0x2E80'0000'0000'0000ull, 89},
          {0xBA5E'0000'0000'0000ull, 32},
          {0x7E4A'0000'0000'0000ull + (id << 24), 135}};
}

/// Read-only admission trial (the PR 5 hot path): one const overlap query.
void BM_KsmProbeRuns(benchmark::State& state) {
  mem::Ksm ksm = fleet_like_tree(static_cast<int>(state.range(0)));
  const auto runs = candidate_runs(1'000'000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ksm.probe_runs(runs));
  }
}
BENCHMARK(BM_KsmProbeRuns)->Arg(100)->Arg(2'000);

/// The pre-probe admission trial: mutate the tree, scan, roll back, scan —
/// what every refusing candidate host used to pay per arrival.
void BM_KsmAdviseScanRemove(benchmark::State& state) {
  mem::Ksm ksm = fleet_like_tree(static_cast<int>(state.range(0)));
  const auto runs = candidate_runs(1'000'000);
  for (auto _ : state) {
    ksm.advise_runs(1'000'000, runs);
    ksm.scan();
    ksm.remove(1'000'000);
    benchmark::DoNotOptimize(ksm.scan());
  }
}
BENCHMARK(BM_KsmAdviseScanRemove)->Arg(100)->Arg(2'000);

std::vector<fleet::HostView> bench_host_views(int hosts, sim::Rng& rng) {
  std::vector<fleet::HostView> views;
  views.reserve(static_cast<std::size_t>(hosts));
  for (int i = 0; i < hosts; ++i) {
    fleet::HostView v;
    v.index = i;
    v.ram_cap_bytes = 256ull << 30;
    v.resident_bytes = rng.next_u64() % v.ram_cap_bytes;
    v.active_tenants = static_cast<int>(rng.next_u64() % 2000);
    v.same_platform_tenants = static_cast<int>(rng.next_u64() % 500);
    v.pressure.cpu_demand = static_cast<double>(rng.next_u64() % 256);
    v.pressure.cpu_threads = 128;
    v.pressure.net_active = static_cast<int>(rng.next_u64() % 64);
    views.push_back(v);
  }
  return views;
}

/// Sort-based ranking: the O(M log M) snapshot sort of rank(), the
/// specification the heap walk below is pinned against. No arrival pays
/// for it; the engine only walks.
void BM_RankHostsSort(benchmark::State& state) {
  sim::Rng rng(21);
  const auto policy = fleet::make_placement(fleet::PlacementKind::kLeastLoaded);
  const auto views = bench_host_views(static_cast<int>(state.range(0)), rng);
  fleet::PlacementRequest req;
  std::vector<int> ranked;
  for (auto _ : state) {
    ranked.clear();
    policy->rank(req, views, ranked);
    benchmark::DoNotOptimize(ranked.data());
  }
}
BENCHMARK(BM_RankHostsSort)->Arg(4)->Arg(64)->Arg(1024);

/// Heap-backed walk, first candidate only — the admission walk's common
/// case (most arrivals admit on their first try), O(log M) per pop.
void BM_RankHostsHeapWalk(benchmark::State& state) {
  sim::Rng rng(21);
  const auto policy = fleet::make_placement(fleet::PlacementKind::kLeastLoaded);
  const auto views = bench_host_views(static_cast<int>(state.range(0)), rng);
  policy->reset();
  for (const auto& v : views) {
    fleet::HostState s;
    s.index = v.index;
    s.ram_cap_bytes = v.ram_cap_bytes;
    s.resident_bytes = v.resident_bytes;
    s.active_tenants = v.active_tenants;
    s.pressure = v.pressure;
    policy->target_updated(s);
  }
  fleet::PlacementRequest req;
  for (auto _ : state) {
    policy->walk_begin(req);
    benchmark::DoNotOptimize(policy->walk_next());
  }
}
BENCHMARK(BM_RankHostsHeapWalk)->Arg(4)->Arg(64)->Arg(1024);

void BM_KvStoreGet(benchmark::State& state) {
  apps::KvStore store(64ull << 20);
  for (std::uint64_t i = 0; i < 50'000; ++i) {
    store.set(apps::YcsbWorkload::key_for(i), "0123456789abcdef");
  }
  sim::Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.get(apps::YcsbWorkload::key_for(
        static_cast<std::uint64_t>(rng.uniform_int(0, 49'999)))));
  }
}
BENCHMARK(BM_KvStoreGet);

}  // namespace

BENCHMARK_MAIN();
