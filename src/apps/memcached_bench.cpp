#include "apps/memcached_bench.h"

#include <algorithm>

namespace apps {

MemcachedBench::MemcachedBench(MemcachedSpec spec)
    : spec_(std::move(spec)), workload_(spec_.workload) {}

MemcachedResult MemcachedBench::run(platforms::Platform& platform,
                                    sim::Clock& clock, sim::Rng& rng) const {
  MemcachedResult result;
  KvStore store(spec_.server_memory);
  auto& nic = platform.host().nic();

  // Load phase (not timed by YCSB's run phase).
  for (std::uint64_t r = 0; r < spec_.workload.record_count; ++r) {
    store.set(YcsbWorkload::key_for(r), workload_.value_for(r));
  }

  // Run phase: sample per-request latency.
  double latency_sum_us = 0.0;
  const auto& mem_profile = platform.memory_profile();
  for (std::uint32_t i = 0; i < spec_.sampled_ops; ++i) {
    const YcsbRequest req = workload_.next(rng);
    // Request travels the platform's network path (small request, ~1 KiB
    // response for reads).
    const std::uint32_t response_bytes =
        req.op == YcsbOp::kRead ? spec_.workload.value_bytes : 64;
    sim::Nanos lat = platform.net().round_trip(nic, response_bytes, rng);
    // Server-side datapath CPU for request + response packets.
    lat += platform.net().sender_cpu_cost(response_bytes + 64, nic);
    // The store operation itself (real hash-table work) plus the memory
    // subsystem's per-access penalty on the value copy.
    if (req.op == YcsbOp::kRead) {
      (void)store.get(req.key);
    } else {
      store.set(req.key, workload_.value_for(i % spec_.workload.record_count));
    }
    lat += sim::nanos(600);  // hash + LRU bookkeeping
    lat += static_cast<sim::Nanos>(mem_profile.backing_extra_ns * 40.0);
    latency_sum_us += sim::to_micros(lat);
    clock.advance(lat);
  }
  result.mean_latency_us = latency_sum_us / spec_.sampled_ops;

  // Concurrency-limited throughput, capped by the platform's small-packet
  // processing capacity (request and response each traverse the datapath).
  const double pipeline_ops =
      static_cast<double>(spec_.client_threads) /
      (result.mean_latency_us * 1e-6);
  const sim::Nanos per_op_cpu =
      platform.net().sender_cpu_cost(spec_.workload.value_bytes, nic) +
      platform.net().sender_cpu_cost(64, nic);
  const double capacity_ops = 1.0 / std::max(sim::to_seconds(per_op_cpu), 1e-9);
  result.ops_per_second = std::min(pipeline_ops, capacity_ops);
  result.hit_ratio = store.hit_ratio();
  result.evictions = store.stats().evictions;
  return result;
}

}  // namespace apps
