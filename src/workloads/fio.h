// fio - Flexible I/O tester model (Figures 9 & 10).
//
// Reproduces the paper's block-level methodology: a file twice the guest's
// RAM is preallocated with fallocate(), then read/written in 128 KiB
// blocks through the libaio engine with direct=1, on a dedicated test
// disk. Platforms that cannot attach a disk (Firecracker) or lack libaio
// (OSv) are reported as unsupported, exactly as the paper excludes them.
// The host page cache is dropped before every run (Section 3.3's remedy).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "platforms/platform.h"
#include "sim/clock.h"
#include "stats/sample_set.h"

namespace workloads {

enum class FioMode { kSeqRead, kSeqWrite, kRandRead };

struct FioSpec {
  FioMode mode = FioMode::kSeqRead;
  std::uint32_t block_bytes = 128 << 10;
  bool direct = true;
  std::uint32_t queue_depth = 16;  // libaio iodepth
  std::uint64_t file_bytes = 8ull << 30;
  std::uint32_t requests = 256;  // sampled requests per run
  bool drop_host_cache_first = true;
};

struct FioResult {
  double throughput_bytes_per_sec = 0.0;
  stats::SampleSet latencies_us;  // per-request completion latency
  bool supported = true;
  std::string exclusion_reason;
};

class Fio {
 public:
  explicit Fio(FioSpec spec = {});

  /// Presets matching the paper's two fio figures.
  static FioSpec figure9_throughput(FioMode mode);
  static FioSpec figure10_randread();

  FioResult run(platforms::Platform& platform, sim::Clock& clock,
                sim::Rng& rng) const;

 private:
  FioSpec spec_;
};

}  // namespace workloads
