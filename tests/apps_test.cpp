// Tests for the application layer: KV store, YCSB, B+tree (property
// tests), MiniSQL engine, lock manager and the two app benchmarks.
#include <gtest/gtest.h>

#include <array>
#include <list>
#include <map>
#include <set>
#include <unordered_map>

#include "apps/btree.h"
#include "apps/kv_store.h"
#include "apps/memcached_bench.h"
#include "apps/minisql.h"
#include "apps/oltp_bench.h"
#include "apps/ycsb.h"
#include "core/host_system.h"
#include "platforms/factory.h"

namespace {

using apps::BPlusTree;
using apps::KvStore;
using apps::LockManager;
using apps::MiniSql;
using apps::YcsbWorkload;

TEST(KvStoreTest, SetGetRoundTrip) {
  KvStore store;
  EXPECT_TRUE(store.set("k1", "v1"));
  const auto v = store.get("k1");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "v1");
  EXPECT_EQ(store.size(), 1u);
}

TEST(KvStoreTest, MissingKeyReturnsNullopt) {
  KvStore store;
  EXPECT_FALSE(store.get("nope").has_value());
  EXPECT_EQ(store.hit_ratio(), 0.0);
}

TEST(KvStoreTest, OverwriteReplacesValueAndAccounting) {
  KvStore store;
  store.set("k", "short");
  const auto used_before = store.bytes_used();
  store.set("k", "a-considerably-longer-value");
  EXPECT_EQ(store.size(), 1u);
  EXPECT_GT(store.bytes_used(), used_before);
  EXPECT_EQ(*store.get("k"), "a-considerably-longer-value");
}

TEST(KvStoreTest, EraseRemoves) {
  KvStore store;
  store.set("k", "v");
  EXPECT_TRUE(store.erase("k"));
  EXPECT_FALSE(store.erase("k"));
  EXPECT_EQ(store.bytes_used(), 0u);
}

TEST(KvStoreTest, LruEvictionUnderMemoryPressure) {
  KvStore store(/*memory_limit_bytes=*/250);  // fits two ~107-byte items
  store.set("a", std::string(50, 'x'));
  store.set("b", std::string(50, 'x'));
  store.get("a");  // refresh a
  store.set("c", std::string(50, 'x'));  // evicts b (LRU)
  EXPECT_TRUE(store.get("a").has_value());
  EXPECT_FALSE(store.get("b").has_value());
  EXPECT_TRUE(store.get("c").has_value());
  EXPECT_GT(store.stats().evictions, 0u);
}

TEST(KvStoreTest, OversizedItemRejected) {
  KvStore store(100);
  EXPECT_FALSE(store.set("k", std::string(200, 'x')));
}

TEST(KvStoreTest, BytesNeverExceedLimit) {
  KvStore store(10'000);
  sim::Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    store.set("key" + std::to_string(rng.uniform_int(0, 99)),
              std::string(static_cast<std::size_t>(rng.uniform_int(10, 300)),
                          'v'));
    EXPECT_LE(store.bytes_used(), 10'000u);
  }
}

TEST(KvStoreTest, OverwriteUnderPressureEvictsTheSameItems) {
  // Six 158-byte items (2-byte key, 100-byte value, 56 bytes of overhead)
  // fill 948 of 1,000 bytes; k0 is the least recent item, k5 the most.
  // Only misses probe the store below: a hit would reorder the LRU list.
  KvStore store(1'000);
  const std::string small(100, 'v');
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(store.set("k" + std::to_string(i), small));
  }
  ASSERT_EQ(store.stats().evictions, 0u);
  // The 458-byte overwrite frees k2's 158 bytes, then has to evict k0 and
  // k1: 948 - 158 - 2 * 158 + 458 = 932. k2 to k5 survive.
  ASSERT_TRUE(store.set("k2", std::string(400, 'w')));
  EXPECT_EQ(store.stats().evictions, 2u);
  EXPECT_EQ(store.bytes_used(), 932u);
  EXPECT_EQ(store.size(), 4u);
  EXPECT_FALSE(store.get("k0").has_value());
  EXPECT_FALSE(store.get("k1").has_value());
  // k2 is now the most recent item. Each new 158-byte item evicts one
  // item from the tail: k3, k4 and k5 go first, and the fourth takes k2.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store.set("n" + std::to_string(i), small));
  }
  EXPECT_EQ(store.stats().evictions, 5u);
  EXPECT_EQ(store.bytes_used(), 932u);
  EXPECT_EQ(store.size(), 4u);
  for (const char* key : {"k3", "k4", "k5"}) {
    EXPECT_FALSE(store.get(key).has_value()) << key;
  }
  ASSERT_TRUE(store.set("n3", small));
  EXPECT_EQ(store.stats().evictions, 6u);
  EXPECT_EQ(store.bytes_used(), 4u * 158u);
  EXPECT_FALSE(store.get("k2").has_value());
  for (const char* key : {"n0", "n1", "n2", "n3"}) {
    EXPECT_TRUE(store.get(key).has_value()) << key;
  }
}

// A node-based LRU store with KvStore's contract: a std::list in LRU order
// (front = most recent) and an unordered_map from key to list node, the
// same 56-byte item overhead, and an overwrite that drops its old item
// before it evicts.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::uint64_t limit) : limit_(limit) {}

  bool set(const std::string& key, std::string value) {
    ++stats_.sets;
    const std::uint64_t needed = cost(key, value);
    if (needed > limit_) {
      return false;
    }
    if (const auto it = index_.find(key); it != index_.end()) {
      bytes_ -= cost(key, it->second->second);
      lru_.erase(it->second);
      index_.erase(it);
    }
    while (bytes_ + needed > limit_ && !lru_.empty()) {
      bytes_ -= cost(lru_.back().first, lru_.back().second);
      index_.erase(lru_.back().first);
      lru_.pop_back();
      ++stats_.evictions;
    }
    lru_.emplace_front(key, std::move(value));
    index_[key] = lru_.begin();
    bytes_ += needed;
    stats_.bytes_stored = bytes_;
    return true;
  }

  std::optional<std::string> get(const std::string& key) {
    ++stats_.gets;
    const auto it = index_.find(key);
    if (it == index_.end()) {
      return std::nullopt;
    }
    ++stats_.get_hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }

  bool erase(const std::string& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) {
      return false;
    }
    bytes_ -= cost(key, it->second->second);
    lru_.erase(it->second);
    index_.erase(it);
    stats_.bytes_stored = bytes_;
    return true;
  }

  std::size_t size() const { return index_.size(); }
  std::uint64_t bytes_used() const { return bytes_; }
  const apps::KvStats& stats() const { return stats_; }
  double hit_ratio() const {
    return stats_.gets == 0 ? 0.0
                            : static_cast<double>(stats_.get_hits) /
                                  static_cast<double>(stats_.gets);
  }

 private:
  using Lru = std::list<std::pair<std::string, std::string>>;
  static std::uint64_t cost(const std::string& key, const std::string& value) {
    return key.size() + value.size() + 56;
  }

  std::uint64_t limit_;
  std::uint64_t bytes_ = 0;
  Lru lru_;
  std::unordered_map<std::string, Lru::iterator> index_;
  apps::KvStats stats_;
};

// Random sets, gets, erases and oversized sets over 500 keys, compared
// with ReferenceLru after every op: return values, size, bytes, every
// counter and the hit ratio. Ops are drawn with weights {set, get, erase};
// 1 in 50 sets is oversized and must be refused.
void expect_matches_reference(std::uint64_t limit, int ops,
                              std::uint64_t seed,
                              std::array<double, 3> weights) {
  KvStore store(limit);
  ReferenceLru ref(limit);
  sim::Rng rng(seed);
  const double total = weights[0] + weights[1] + weights[2];
  for (int op = 0; op < ops; ++op) {
    const std::string key = "key" + std::to_string(rng.uniform_int(0, 499));
    const double p = rng.next_double() * total;
    if (p < weights[0]) {
      const bool oversized = rng.uniform_int(0, 49) == 0;
      const auto bytes = static_cast<std::size_t>(
          oversized ? static_cast<std::int64_t>(limit) : rng.uniform_int(0, 300));
      const std::string value(bytes, static_cast<char>('a' + op % 26));
      const bool stored = store.set(key, value);
      ASSERT_EQ(stored, ref.set(key, value)) << "set, op " << op;
      ASSERT_EQ(stored, !oversized) << "op " << op;
    } else if (p < weights[0] + weights[1]) {
      ASSERT_EQ(store.get(key), ref.get(key)) << "get, op " << op;
    } else {
      ASSERT_EQ(store.erase(key), ref.erase(key)) << "erase, op " << op;
    }
    ASSERT_EQ(store.size(), ref.size()) << "op " << op;
    ASSERT_EQ(store.bytes_used(), ref.bytes_used()) << "op " << op;
    const apps::KvStats& s = store.stats();
    const apps::KvStats& r = ref.stats();
    ASSERT_EQ(s.gets, r.gets) << "op " << op;
    ASSERT_EQ(s.get_hits, r.get_hits) << "op " << op;
    ASSERT_EQ(s.sets, r.sets) << "op " << op;
    ASSERT_EQ(s.evictions, r.evictions) << "op " << op;
    ASSERT_EQ(s.bytes_stored, r.bytes_stored) << "op " << op;
    ASSERT_EQ(store.hit_ratio(), ref.hit_ratio()) << "op " << op;
  }
}

TEST(KvStoreTest, RandomizedAgainstReferenceLru) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    // ~100 items fit in 20,000 bytes, so most sets of a new key evict.
    expect_matches_reference(20'000, 6'000, seed, {0.5, 0.35, 0.15});
    // Nothing is evicted from 1 MiB: the store fills toward 500 keys, so
    // its index doubles several times while erases remove live keys.
    expect_matches_reference(1ull << 20, 6'000, seed, {0.55, 0.2, 0.25});
  }
}

TEST(YcsbTest, WorkloadAMixIsBalanced) {
  YcsbWorkload workload(YcsbWorkload::workload_a());
  sim::Rng rng(5);
  int reads = 0, updates = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    const auto req = workload.next(rng);
    reads += req.op == apps::YcsbOp::kRead;
    updates += req.op == apps::YcsbOp::kUpdate;
  }
  EXPECT_NEAR(static_cast<double>(reads) / n, 0.5, 0.02);
  EXPECT_NEAR(static_cast<double>(updates) / n, 0.5, 0.02);
}

TEST(YcsbTest, WorkloadCIsReadOnly) {
  YcsbWorkload workload(YcsbWorkload::workload_c());
  sim::Rng rng(6);
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_EQ(workload.next(rng).op, apps::YcsbOp::kRead);
  }
}

TEST(YcsbTest, KeysAreDeterministic) {
  EXPECT_EQ(YcsbWorkload::key_for(42), YcsbWorkload::key_for(42));
  EXPECT_NE(YcsbWorkload::key_for(42), YcsbWorkload::key_for(43));
}

TEST(YcsbTest, ValueForFollowsThePayloadRule) {
  for (const std::uint32_t bytes : {0u, 1u, 17u, 1'000u}) {
    apps::YcsbSpec spec;
    spec.value_bytes = bytes;
    const YcsbWorkload workload(spec);
    for (const std::uint64_t record :
         {0ull, 1ull, 25ull, 26ull, 51ull, 19'999ull, (1ull << 40) + 3}) {
      const std::string value = workload.value_for(record);
      ASSERT_EQ(value.size(), bytes) << "record " << record;
      for (std::uint32_t i = 0; i < bytes; ++i) {
        ASSERT_EQ(value[i], static_cast<char>('a' + record % 26 + i % 17))
            << "record " << record << ", byte " << i;
      }
    }
  }
}

TEST(YcsbTest, ZipfianSkewOnKeys) {
  YcsbWorkload workload(YcsbWorkload::workload_a());
  sim::Rng rng(7);
  std::map<std::string, int> counts;
  for (int i = 0; i < 20'000; ++i) {
    ++counts[workload.next(rng).key];
  }
  int max_count = 0;
  for (const auto& [k, c] : counts) {
    max_count = std::max(max_count, c);
  }
  // The hottest key draws far more than uniform share.
  EXPECT_GT(max_count, 20'000 / 100'000 * 20);
  EXPECT_GT(max_count, 200);
}

TEST(BtreeTest, InsertFindBasic) {
  BPlusTree tree;
  tree.insert(5, "five");
  tree.insert(3, "three");
  tree.insert(8, "eight");
  EXPECT_EQ(*tree.find(5), "five");
  EXPECT_EQ(*tree.find(3), "three");
  EXPECT_FALSE(tree.find(4).has_value());
  EXPECT_EQ(tree.size(), 3u);
}

TEST(BtreeTest, OverwriteKeepsSize) {
  BPlusTree tree;
  tree.insert(1, "a");
  tree.insert(1, "b");
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(*tree.find(1), "b");
}

TEST(BtreeTest, EraseRemovesKey) {
  BPlusTree tree;
  tree.insert(1, "a");
  tree.insert(2, "b");
  EXPECT_TRUE(tree.erase(1));
  EXPECT_FALSE(tree.erase(1));
  EXPECT_FALSE(tree.find(1).has_value());
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BtreeTest, HeightGrowsLogarithmically) {
  BPlusTree tree(16);
  for (std::int64_t i = 0; i < 10'000; ++i) {
    tree.insert(i, "v");
  }
  EXPECT_GE(tree.height(), 3u);
  EXPECT_LE(tree.height(), 6u);
  tree.check_invariants();
}

TEST(BtreeTest, ScanIsOrderedAndBounded) {
  BPlusTree tree;
  for (std::int64_t i = 100; i >= 1; --i) {
    tree.insert(i, std::to_string(i));
  }
  std::vector<std::int64_t> seen;
  tree.scan(10, 20, [&](std::int64_t k, const std::string&) {
    seen.push_back(k);
    return true;
  });
  ASSERT_EQ(seen.size(), 11u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], static_cast<std::int64_t>(10 + i));
  }
}

TEST(BtreeTest, ScanEarlyStop) {
  BPlusTree tree;
  for (std::int64_t i = 0; i < 50; ++i) {
    tree.insert(i, "v");
  }
  int visited = 0;
  tree.scan(0, 49, [&](std::int64_t, const std::string&) {
    return ++visited < 5;
  });
  EXPECT_EQ(visited, 5);
}

// Property test: random interleaved operations preserve invariants and
// agree with a std::map reference model.
class BtreeProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BtreeProperty, MatchesReferenceModel) {
  const auto [order, seed] = GetParam();
  BPlusTree tree(static_cast<std::size_t>(order));
  std::map<std::int64_t, std::string> reference;
  sim::Rng rng(static_cast<std::uint64_t>(seed));
  for (int op = 0; op < 4'000; ++op) {
    const std::int64_t key = rng.uniform_int(0, 500);
    const double p = rng.next_double();
    if (p < 0.55) {
      const std::string value = "v" + std::to_string(op);
      tree.insert(key, value);
      reference[key] = value;
    } else if (p < 0.8) {
      const bool tree_had = tree.erase(key);
      const bool ref_had = reference.erase(key) > 0;
      EXPECT_EQ(tree_had, ref_had);
    } else {
      const auto got = tree.find(key);
      const auto it = reference.find(key);
      EXPECT_EQ(got.has_value(), it != reference.end());
      if (got && it != reference.end()) {
        EXPECT_EQ(*got, it->second);
      }
    }
  }
  EXPECT_EQ(tree.size(), reference.size());
  tree.check_invariants();
  // Full scan agrees with the reference order.
  std::vector<std::int64_t> keys;
  tree.scan(-1, 501, [&](std::int64_t k, const std::string&) {
    keys.push_back(k);
    return true;
  });
  ASSERT_EQ(keys.size(), reference.size());
  auto it = reference.begin();
  for (const auto k : keys) {
    EXPECT_EQ(k, it->first);
    ++it;
  }
}

INSTANTIATE_TEST_SUITE_P(OrdersAndSeeds, BtreeProperty,
                         ::testing::Combine(::testing::Values(4, 8, 64, 128),
                                            ::testing::Values(1, 2, 3)));

TEST(LockManagerTest, ConflictDetected) {
  LockManager locks;
  EXPECT_TRUE(locks.lock(1, "t", 10));
  EXPECT_FALSE(locks.lock(2, "t", 10));
  EXPECT_EQ(locks.conflicts(), 1u);
  EXPECT_TRUE(locks.lock(2, "t", 11));  // different row is fine
}

TEST(LockManagerTest, ReentrantAndRelease) {
  LockManager locks;
  EXPECT_TRUE(locks.lock(1, "t", 10));
  EXPECT_TRUE(locks.lock(1, "t", 10));  // re-entrant
  locks.release_all(1);
  EXPECT_TRUE(locks.lock(2, "t", 10));
  EXPECT_EQ(locks.held(), 1u);
}

TEST(MiniSqlTest, PrepareLoadsAllTables) {
  MiniSql db(1'000);
  sim::Rng rng(9);
  db.prepare(rng);
  for (int i = 0; i < MiniSql::kTables; ++i) {
    EXPECT_EQ(db.table(i).rows(), 1'000u);
    db.table(i).tree().check_invariants();
  }
}

TEST(MiniSqlTest, TransactionTouchesExpectedFootprint) {
  MiniSql db(2'000);
  sim::Rng rng(10);
  db.prepare(rng);
  const auto fp = db.run_transaction(1, rng);
  EXPECT_GT(fp.btree_nodes, 10u);
  EXPECT_GT(fp.rows_touched, 10u);  // 10 selects + scan + DML
  EXPECT_GE(fp.wal_appends, 2u);
  EXPECT_GT(fp.page_reads, 0u);
}

TEST(MiniSqlTest, CardinalityStableAcrossTransactions) {
  MiniSql db(500);
  sim::Rng rng(11);
  db.prepare(rng);
  const std::size_t before =
      db.table(0).rows() + db.table(1).rows() + db.table(2).rows();
  for (std::uint64_t t = 1; t <= 50; ++t) {
    db.run_transaction(t, rng);
  }
  const std::size_t after =
      db.table(0).rows() + db.table(1).rows() + db.table(2).rows();
  // DELETE+INSERT per txn: total row count stays within a small band
  // (deletes can miss already-deleted ids).
  EXPECT_NEAR(static_cast<double>(after), static_cast<double>(before), 55.0);
}

TEST(MiniSqlTest, WalGrows) {
  MiniSql db(500);
  sim::Rng rng(12);
  db.prepare(rng);
  db.run_transaction(1, rng);
  EXPECT_GT(db.wal_bytes(), 0u);
}

struct AppBenchFixture : public ::testing::Test {
  core::HostSystem host;
  sim::Rng rng{55};
};

TEST_F(AppBenchFixture, MemcachedContainersBeatSecureContainers) {
  apps::MemcachedSpec spec;
  spec.sampled_ops = 600;
  spec.workload.record_count = 5'000;
  const apps::MemcachedBench bench(spec);
  auto docker = platforms::PlatformFactory::create(
      platforms::PlatformId::kDocker, host);
  auto kata = platforms::PlatformFactory::create(
      platforms::PlatformId::kKataContainers, host);
  sim::Clock c1, c2;
  const auto d = bench.run(*docker, c1, rng);
  const auto k = bench.run(*kata, c2, rng);
  EXPECT_GT(d.ops_per_second, k.ops_per_second * 2.0);  // Finding 18
  EXPECT_GT(d.hit_ratio, 0.95);  // load phase fully resident
}

TEST_F(AppBenchFixture, MemcachedBenchRunsAreIndependent) {
  apps::MemcachedSpec spec;
  spec.sampled_ops = 400;
  spec.workload.record_count = 3'000;
  spec.server_memory = 1ull << 20;  // ~1,000 of the 3,000 items fit
  const apps::MemcachedBench bench(spec);
  auto docker = platforms::PlatformFactory::create(
      platforms::PlatformId::kDocker, host);
  const auto run_with_fresh_rng = [&](const apps::MemcachedBench& b) {
    sim::Rng fresh(77);
    sim::Clock clock;
    return b.run(*docker, clock, fresh);
  };
  const auto first = run_with_fresh_rng(bench);
  const auto second = run_with_fresh_rng(bench);
  const auto rebuilt = run_with_fresh_rng(apps::MemcachedBench(spec));
  ASSERT_GT(first.evictions, 0u);
  for (const auto* result : {&second, &rebuilt}) {
    EXPECT_EQ(result->ops_per_second, first.ops_per_second);
    EXPECT_EQ(result->mean_latency_us, first.mean_latency_us);
    EXPECT_EQ(result->hit_ratio, first.hit_ratio);
    EXPECT_EQ(result->evictions, first.evictions);
  }
}

TEST_F(AppBenchFixture, OltpPeaksNearFiftyForGuests) {
  apps::OltpSpec spec;
  spec.rows_per_table = 4'000;
  spec.sampled_txns = 30;
  const apps::OltpBench bench(spec);
  auto docker = platforms::PlatformFactory::create(
      platforms::PlatformId::kDocker, host);
  sim::Clock clock;
  const auto result = bench.run(*docker, clock, rng);
  EXPECT_GE(result.peak_threads(), 40);
  EXPECT_LE(result.peak_threads(), 60);
}

TEST_F(AppBenchFixture, OltpNativePeaksLate) {
  apps::OltpSpec spec;
  spec.rows_per_table = 4'000;
  spec.sampled_txns = 30;
  const apps::OltpBench bench(spec);
  auto native = platforms::PlatformFactory::create(
      platforms::PlatformId::kNative, host);
  sim::Clock clock;
  const auto result = bench.run(*native, clock, rng);
  EXPECT_GE(result.peak_threads(), 80);  // "peaks at around 110"
}

TEST_F(AppBenchFixture, OltpAbortsIncreaseUnderSmallTables) {
  // Tiny tables force row conflicts through the real lock manager.
  apps::OltpSpec spec;
  spec.rows_per_table = 50;
  spec.sampled_txns = 60;
  const apps::OltpBench bench(spec);
  auto native = platforms::PlatformFactory::create(
      platforms::PlatformId::kNative, host);
  sim::Clock clock;
  const auto result = bench.run(*native, clock, rng);
  double total_aborts = 0;
  for (const auto& p : result.curve) {
    total_aborts += p.abort_rate;
  }
  EXPECT_GT(total_aborts, 0.0);
}

}  // namespace
