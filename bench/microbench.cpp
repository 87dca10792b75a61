// google-benchmark microbenchmarks of the framework's own primitives:
// RNG, statistics, ftrace recording, syscall dispatch, HAP workload
// records, page cache, B+tree and KV-store operations. These guard the
// simulator's performance (the figure harnesses run hundreds of thousands
// of modeled operations).
#include <benchmark/benchmark.h>

#include "apps/btree.h"
#include "apps/kv_store.h"
#include "apps/memcached_bench.h"
#include "apps/oltp_bench.h"
#include "apps/ycsb.h"
#include "core/host_system.h"
#include "fleet/event_queue.h"
#include "fleet/placement.h"
#include "hostk/host_kernel.h"
#include "hostk/page_cache.h"
#include "mem/ksm.h"
#include "platforms/factory.h"
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

/// What a fleet report pays per sample set: p50 and p99 of a set that no
/// one has queried yet, its samples in arrival order. program-storm's
/// op-latency sets hold up to ~1M samples.
void BM_SampleSetPercentile(benchmark::State& state) {
  sim::Rng rng(3);
  std::vector<double> values(static_cast<std::size_t>(state.range(0)));
  for (double& v : values) {
    v = rng.next_double();
  }
  stats::SampleSet samples;
  for (auto _ : state) {
    state.PauseTiming();
    samples = stats::SampleSet(values);
    state.ResumeTiming();
    benchmark::DoNotOptimize(samples.percentile(50));
    benchmark::DoNotOptimize(samples.percentile(99));
  }
}
BENCHMARK(BM_SampleSetPercentile)->Arg(10'000)->Arg(1'000'000);

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

/// The KSM mutation pair every admitted hypervisor tenant pays: advise_runs
/// + scan at admission, remove + scan at teardown.
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

/// The four platforms of isobench's storm-ksm mix.
constexpr platforms::PlatformId kStormPlatforms[] = {
    platforms::PlatformId::kDocker, platforms::PlatformId::kFirecracker,
    platforms::PlatformId::kQemuKvm, platforms::PlatformId::kOsvFirecracker};

std::vector<fleet::TargetState> bench_hosts(int hosts, sim::Rng& rng) {
  std::vector<fleet::TargetState> targets;
  targets.reserve(static_cast<std::size_t>(hosts));
  for (int i = 0; i < hosts; ++i) {
    fleet::TargetState t;
    t.index = i;
    t.ram_cap_bytes = 256ull << 30;
    t.resident_bytes = rng.next_u64() % t.ram_cap_bytes;
    t.active_tenants = static_cast<int>(rng.next_u64() % 2000);
    for (const auto id : kStormPlatforms) {
      t.tenants_by_platform[static_cast<std::size_t>(id)] =
          static_cast<int>(rng.next_u64() % 500);
    }
    t.pressure.cpu_demand = static_cast<double>(rng.next_u64() % 256);
    t.pressure.cpu_threads = 128;
    t.pressure.net_active = static_cast<int>(rng.next_u64() % 64);
    targets.push_back(t);
  }
  return targets;
}

/// Sort-based ranking: the O(M log M) snapshot sort of rank(), the
/// specification the heap walk below is pinned against. No arrival pays
/// for it; the engine only walks.
void BM_RankHostsSort(benchmark::State& state) {
  sim::Rng rng(21);
  const auto policy = fleet::make_placement(fleet::PlacementKind::kLeastLoaded);
  const auto hosts = bench_hosts(static_cast<int>(state.range(0)), rng);
  fleet::PlacementRequest req;
  std::vector<int> ranked;
  for (auto _ : state) {
    ranked.clear();
    policy->rank(req, hosts, ranked);
    benchmark::DoNotOptimize(ranked.data());
  }
}
BENCHMARK(BM_RankHostsSort)->Arg(4)->Arg(64)->Arg(1024);

/// Heap-backed walk, first candidate only — the admission walk's common
/// case (most arrivals admit on their first try), O(log M) per pop.
void BM_RankHostsHeapWalk(benchmark::State& state) {
  sim::Rng rng(21);
  const auto policy = fleet::make_placement(fleet::PlacementKind::kLeastLoaded);
  policy->reset();
  for (const auto& h : bench_hosts(static_cast<int>(state.range(0)), rng)) {
    policy->target_updated(h);
  }
  fleet::PlacementRequest req;
  for (auto _ : state) {
    policy->walk_begin(req);
    benchmark::DoNotOptimize(policy->walk_next());
  }
}
BENCHMARK(BM_RankHostsHeapWalk)->Arg(4)->Arg(64)->Arg(1024);

/// The ksm-affinity walk as storm-ksm drives it: each arrival walks the
/// heap of one of its four platforms, pops 8 candidates (storm-ksm tries
/// 7.8 per arrival) and republishes the first with more CPU demand, which
/// repositions that host in every platform's heap.
void BM_AffinityWalk(benchmark::State& state) {
  sim::Rng rng(21);
  const auto policy = fleet::make_placement(fleet::PlacementKind::kKsmAffinity);
  std::vector<fleet::TargetState> hosts =
      bench_hosts(static_cast<int>(state.range(0)), rng);
  policy->reset();
  for (const auto& h : hosts) {
    policy->target_updated(h);
  }
  std::size_t arrival = 0;
  for (auto _ : state) {
    policy->walk_begin(fleet::PlacementRequest{kStormPlatforms[arrival++ % 4]});
    const int first = policy->walk_next();
    for (int k = 1; k < 8; ++k) {
      benchmark::DoNotOptimize(policy->walk_next());
    }
    fleet::TargetState& h = hosts[static_cast<std::size_t>(first)];
    h.pressure.cpu_demand += 1.0;
    policy->target_updated(h);
  }
}
BENCHMARK(BM_AffinityWalk)->Arg(4)->Arg(64);

/// The engine's event queue held at a fixed depth: each iteration pops the
/// earliest event and pushes it back an exponential gap later. 30,000 and
/// 100,000 are the peak queue depths of isobench's program-storm and
/// storm-ksm workloads.
void BM_EventQueueHold(benchmark::State& state) {
  constexpr std::size_t kGaps = 4096;
  sim::Rng rng(29);
  const double rate = 1.0 / static_cast<double>(sim::millis(250));
  std::vector<sim::Nanos> gaps(kGaps);
  for (sim::Nanos& g : gaps) {
    g = 1 + static_cast<sim::Nanos>(rng.exponential(rate));
  }
  fleet::EventQueue q;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    q.push(static_cast<sim::Nanos>(rng.exponential(rate)),
           static_cast<std::uint64_t>(i), fleet::EventKind::kPhaseDone);
  }
  std::size_t g = 0;
  for (auto _ : state) {
    const fleet::Event e = q.pop();
    benchmark::DoNotOptimize(e.tenant);
    q.push(e.time + gaps[g], e.tenant, e.kind);
    g = (g + 1) % kGaps;
  }
}
BENCHMARK(BM_EventQueueHold)->Arg(1'000)->Arg(30'000)->Arg(100'000);

/// One HAP record with ftrace on, the unit the fleet engine pays per
/// tenant phase: firecracker's kCpu phase (storm-ksm's per-phase record)
/// and docker's kStartup unit (its teardown record, one boot trace).
void BM_RecordWorkload(benchmark::State& state, platforms::PlatformId id,
                       platforms::WorkloadClass w) {
  core::HostSystem host;
  const auto platform = platforms::PlatformFactory::create(id, host);
  host.kernel().ftrace().start();
  sim::Rng rng(31);
  for (auto _ : state) {
    platform->record_workload(w, rng);
  }
  benchmark::DoNotOptimize(host.kernel().ftrace().total_invocations());
}
BENCHMARK_CAPTURE(BM_RecordWorkload, firecracker_cpu,
                  platforms::PlatformId::kFirecracker,
                  platforms::WorkloadClass::kCpu);
BENCHMARK_CAPTURE(BM_RecordWorkload, docker_startup,
                  platforms::PlatformId::kDocker,
                  platforms::WorkloadClass::kStartup);

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

/// One Figure 16 memcached run on docker with the figure's spec: load
/// 20,000 1-KB items into a fresh store, then 2,000 sampled requests.
/// findings_report and paper-figures repeat it 3 times per platform.
void BM_MemcachedRun(benchmark::State& state) {
  core::HostSystem host;
  const auto docker =
      platforms::PlatformFactory::create(platforms::PlatformId::kDocker, host);
  apps::MemcachedSpec spec;
  spec.sampled_ops = 2'000;
  spec.workload.record_count = 20'000;
  const apps::MemcachedBench bench(spec);
  sim::Rng rng(16);
  for (auto _ : state) {
    sim::Clock clock;
    benchmark::DoNotOptimize(bench.run(*docker, clock, rng));
  }
}
BENCHMARK(BM_MemcachedRun)->Unit(benchmark::kMillisecond);

/// One Figure 17 OLTP run on docker with the figure's spec: prepare three
/// 8,000-row tables, then 60 sampled transactions at each thread count.
/// paper-figures repeats it 3 times per platform, findings_report twice.
void BM_OltpRun(benchmark::State& state) {
  core::HostSystem host;
  const auto docker =
      platforms::PlatformFactory::create(platforms::PlatformId::kDocker, host);
  apps::OltpSpec spec;
  spec.rows_per_table = 8'000;
  spec.sampled_txns = 60;
  const apps::OltpBench bench(spec);
  sim::Rng rng(17);
  for (auto _ : state) {
    sim::Clock clock;
    benchmark::DoNotOptimize(bench.run(*docker, clock, rng));
  }
}
BENCHMARK(BM_OltpRun)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
