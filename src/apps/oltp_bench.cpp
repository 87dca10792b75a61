#include "apps/oltp_bench.h"

#include <algorithm>

namespace apps {

namespace {
// Latency-model constants (calibrated against Figure 17).
constexpr double kPerQueryCpuUs = 65.0;     // parse/plan/execute per query
constexpr int kQueriesPerTxn = 14;          // 10 selects + scan + U/D/I
constexpr double kPerNodeUs = 0.4;          // B+tree node walk
constexpr double kPerRowUs = 2.0;           // row materialization
constexpr double kMemAccessesPerRow = 1100;  // buffer-pool walk accesses
constexpr double kContentionBaseMs = 1.45;  // lock wait at the knee
constexpr int kKneeGuest = 48;              // guests peak ~50 (Finding 20)
constexpr int kKneeNative = 105;            // native peaks ~110
constexpr double kEngineCapTps = 14'000;    // hot-row/log ceiling
}  // namespace

int OltpResult::peak_threads() const {
  int best = 0;
  double best_tps = -1.0;
  for (const auto& p : curve) {
    if (p.tps > best_tps) {
      best_tps = p.tps;
      best = p.threads;
    }
  }
  return best;
}

OltpBench::OltpBench(OltpSpec spec) : spec_(std::move(spec)) {}

sim::Nanos OltpBench::txn_latency(platforms::Platform& platform, MiniSql& db,
                                  const TxnFootprint& fp, int threads,
                                  sim::Rng& rng) const {
  (void)db;
  const auto& cpu = platform.cpu_profile();
  double us = 0.0;

  // CPU: queries + real engine work.
  us += kPerQueryCpuUs * kQueriesPerTxn;
  us += kPerNodeUs * fp.btree_nodes;
  us += kPerRowUs * fp.rows_touched;

  // Memory subsystem: buffer-pool walks pay the backing penalty.
  us += platform.memory_profile().backing_extra_ns * kMemAccessesPerRow *
        fp.rows_touched / 1e3;

  // I/O: buffer-pool misses (random point reads, QD1) + one WAL flush.
  if (storage::BlockPath* path = platform.block()) {
    sim::Nanos io = 0;
    for (std::uint32_t i = 0; i < fp.page_reads; ++i) {
      io += path->read(/*file=*/0xDB, rng.next_u64() % (1ull << 33), 16 << 10,
                       /*direct=*/true, rng, /*queue_depth=*/1);
    }
    io += path->write(/*file=*/0xA10, 0, 16 << 10, true, rng, 1);
    us += sim::to_micros(io);
  }

  // Network: query/response round trips (batched by sysbench pipelining).
  auto& nic = platform.host().nic();
  us += sim::to_micros(platform.net().round_trip(nic, 256, rng)) * 2.0;

  // Synchronization: row locks + internal latches through the platform's
  // futex path...
  sim::Nanos sync = 0;
  for (std::uint32_t i = 0; i < fp.lock_acquisitions + 4; ++i) {
    sync += platform.sync_syscall_cost(rng);
  }
  us += sim::to_micros(sync);

  // ...plus contention: quadratic lock-wait growth past the platform's
  // scaling knee. Native's knee sits much higher (Finding 20).
  const int knee =
      platform.id() == platforms::PlatformId::kNative ? kKneeNative : kKneeGuest;
  const double ratio = static_cast<double>(threads) / knee;
  us += kContentionBaseMs * 1e3 * cpu.futex_cost_factor * ratio * ratio;

  // Custom schedulers inflate the whole service time with thread count
  // (OSv and gVisor, Finding 21).
  us *= 1.0 + cpu.sched_alpha * std::max(0, threads - 1);

  return sim::micros(us);
}

OltpResult OltpBench::run(platforms::Platform& platform, sim::Clock& clock,
                          sim::Rng& rng) const {
  OltpResult result;
  MiniSql db(spec_.rows_per_table);
  db.prepare(rng);

  std::uint64_t txn_id = 1;
  for (const int threads : spec_.thread_counts) {
    double latency_sum_us = 0.0;
    std::uint32_t aborts = 0;
    // Model concurrency: a window of ~threads/4 transactions keeps its
    // row locks in flight, so later transactions can genuinely conflict
    // through the real lock manager.
    const std::uint64_t window = static_cast<std::uint64_t>(threads) / 4 + 1;
    for (std::uint32_t i = 0; i < spec_.sampled_txns; ++i) {
      bool aborted = false;
      const TxnFootprint fp =
          db.run_transaction(txn_id, rng, &aborted, /*hold_locks=*/true);
      if (txn_id > window) {
        db.commit(txn_id - window);
      }
      ++txn_id;
      aborts += aborted;
      const sim::Nanos lat = txn_latency(platform, db, fp, threads, rng);
      latency_sum_us += sim::to_micros(lat);
      clock.advance(lat);
    }
    // Drain the in-flight window before the next thread count.
    for (std::uint64_t t = txn_id > window ? txn_id - window : 1; t < txn_id;
         ++t) {
      db.commit(t);
    }
    const double mean_latency_us = latency_sum_us / spec_.sampled_txns;
    double tps = static_cast<double>(threads) / (mean_latency_us * 1e-6);
    // Engine ceiling: hot-row conflicts and log serialization cap every
    // platform. Batching efficiency lets the ceiling rise gently up to
    // ~110 clients, after which it erodes — which is why native "peaks"
    // around 110 without a large margin over the platforms (Finding 20).
    const double cap = kEngineCapTps *
                       (1.0 + 0.0012 * std::min(threads, 110)) *
                       (1.0 - 0.0020 * std::max(0, threads - 110));
    tps = std::min(tps, cap);
    // Run-to-run variability (the wide error bands of Finding 23 come
    // from repeating whole runs in the figure harness).
    tps *= 1.0 + rng.normal(0.0, 0.015);
    result.curve.push_back(OltpPoint{
        threads, tps, mean_latency_us / 1e3,
        static_cast<double>(aborts) / spec_.sampled_txns});
  }
  return result;
}

}  // namespace apps
