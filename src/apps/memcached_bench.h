// Memcached + YCSB benchmark (Figure 16).
//
// A real KvStore serves a YCSB workload-A stream arriving through the
// platform's network path. Per-request latency combines the network round
// trip, the server's per-packet datapath CPU and the store operation;
// throughput is concurrency-limited by the slower of the request pipeline
// and the platform's small-packet processing capacity. This reproduces
// the paper's Findings 17-19: containers on top, newer hypervisors lower,
// Kata surprisingly low, gVisor dragged down by Netstack.
#pragma once

#include <cstdint>

#include "apps/kv_store.h"
#include "apps/ycsb.h"
#include "platforms/platform.h"
#include "sim/clock.h"

namespace apps {

struct MemcachedSpec {
  YcsbSpec workload = YcsbWorkload::workload_a();
  std::uint32_t client_threads = 32;
  std::uint32_t sampled_ops = 4'000;  // requests simulated per run
  std::uint64_t server_memory = 512ull << 20;
};

struct MemcachedResult {
  double ops_per_second = 0.0;
  double mean_latency_us = 0.0;
  double hit_ratio = 0.0;
  std::uint64_t evictions = 0;
};

class MemcachedBench {
 public:
  /// Builds the YCSB workload (Zipfian constants, payload table) once.
  explicit MemcachedBench(MemcachedSpec spec = {});

  /// One benchmark run: loads a fresh store, then drives the request
  /// stream. Runs share the one stateless workload and draw only from
  /// `rng`, so no run affects another.
  MemcachedResult run(platforms::Platform& platform, sim::Clock& clock,
                      sim::Rng& rng) const;

 private:
  MemcachedSpec spec_;
  YcsbWorkload workload_;
};

}  // namespace apps
