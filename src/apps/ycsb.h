// YCSB — Yahoo! Cloud Serving Benchmark workload generator (Section 3.6).
//
// Implements the request mix and key-popularity model of YCSB's core
// workloads; the paper uses workload A (50/50 reads and updates, zipfian
// record selection — "a session store recording recent actions").
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "sim/rng.h"

namespace apps {

enum class YcsbOp { kRead, kUpdate, kInsert, kScan };

struct YcsbSpec {
  std::uint64_t record_count = 100'000;
  std::uint32_t value_bytes = 1'000;  // 10 fields x 100 bytes in real YCSB
  double read_proportion = 0.5;       // workload A
  double update_proportion = 0.5;
  double zipfian_theta = 0.99;
};

struct YcsbRequest {
  YcsbOp op;
  std::string key;
};

/// Generates the request stream. Stateless once built: every draw comes
/// from the caller's Rng, so one workload can serve any number of runs.
class YcsbWorkload {
 public:
  /// Computes the Zipfian constants and the payload table once.
  explicit YcsbWorkload(YcsbSpec spec = {});

  /// The canonical presets.
  static YcsbSpec workload_a();  // 50/50 read/update (the paper's choice)
  static YcsbSpec workload_b();  // 95/5 read/update
  static YcsbSpec workload_c();  // read only

  /// Next request: a Zipfian record, then an op drawn from the mix.
  YcsbRequest next(sim::Rng& rng) const;

  /// Key for a record id (YCSB's "user<hash>" format).
  static std::string key_for(std::uint64_t record);

  /// Deterministic payload for a record: `value_bytes` characters, the
  /// i-th being 'a' + record % 26 + i % 17. It depends on record % 26 only,
  /// so this copies one of the 26 payloads built at construction.
  std::string value_for(std::uint64_t record) const;

  const YcsbSpec& spec() const { return spec_; }

 private:
  static constexpr std::size_t kPayloads = 26;

  YcsbSpec spec_;
  sim::ZipfianGenerator zipf_;
  std::array<std::string, kPayloads> payloads_;
};

}  // namespace apps
