// Sysbench oltp_read_write over MiniSQL (Figure 17).
//
// Executes real transactions against the B+tree engine and converts each
// transaction's footprint into platform-dependent virtual time:
//   - CPU: index traversals and row processing
//   - memory: buffer-pool walks pay the platform's per-access penalty
//     (Firecracker's root cause per Finding 22)
//   - I/O: buffer-pool misses and WAL appends through the block path
//     (Kata's root cause per Finding 22)
//   - network: client<->server query round trips
//   - synchronization: row locks through the platform's futex path, with
//     quadratic contention beyond the platform's scaling knee
// The thread sweep then reproduces the three groups of Findings 20-23.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/minisql.h"
#include "platforms/platform.h"
#include "sim/clock.h"

namespace apps {

struct OltpSpec {
  std::uint64_t rows_per_table = 20'000;  // scaled-down sbtest tables
  std::uint32_t sampled_txns = 120;       // per thread-count measurement
  std::vector<int> thread_counts = {10, 20, 40, 50, 60, 80, 110, 130, 160};
};

struct OltpPoint {
  int threads = 0;
  double tps = 0.0;
  double mean_latency_ms = 0.0;
  double abort_rate = 0.0;
};

struct OltpResult {
  std::vector<OltpPoint> curve;

  /// Threads at which tps peaks.
  int peak_threads() const;
};

class OltpBench {
 public:
  explicit OltpBench(OltpSpec spec = {});

  OltpResult run(platforms::Platform& platform, sim::Clock& clock,
                 sim::Rng& rng) const;

  /// Per-transaction service time on `platform` at a given thread count
  /// (exposed for tests).
  sim::Nanos txn_latency(platforms::Platform& platform, MiniSql& db,
                         const TxnFootprint& fp, int threads,
                         sim::Rng& rng) const;

 private:
  OltpSpec spec_;
};

}  // namespace apps
