#include "workloads/fio.h"

namespace workloads {

Fio::Fio(FioSpec spec) : spec_(spec) {}

FioSpec Fio::figure9_throughput(FioMode mode) {
  FioSpec spec;
  spec.mode = mode;
  spec.block_bytes = 128 << 10;
  spec.queue_depth = 16;
  return spec;
}

FioSpec Fio::figure10_randread() {
  FioSpec spec;
  spec.mode = FioMode::kRandRead;
  spec.block_bytes = 4 << 10;
  spec.queue_depth = 1;  // latency-sensitive configuration
  return spec;
}

FioResult Fio::run(platforms::Platform& platform, sim::Clock& clock,
                   sim::Rng& rng) const {
  FioResult result;
  if (!platform.capabilities().extra_disk) {
    result.supported = false;
    result.exclusion_reason = "cannot attach a dedicated test disk";
    return result;
  }
  if (!platform.capabilities().libaio) {
    result.supported = false;
    result.exclusion_reason = "libaio engine not available";
    return result;
  }
  storage::BlockPath* path = platform.block();
  if (path == nullptr) {
    result.supported = false;
    result.exclusion_reason = "no block path";
    return result;
  }

  if (spec_.drop_host_cache_first) {
    path->drop_host_cache();
  }

  // Preallocation (fallocate) — charged but not timed by fio itself.
  clock.advance(sim::micros(400));

  const std::uint64_t file_id = 0xF10;
  const std::uint64_t blocks_in_file = spec_.file_bytes / spec_.block_bytes;
  sim::Nanos busy = 0;
  for (std::uint32_t i = 0; i < spec_.requests; ++i) {
    std::uint64_t block_index;
    if (spec_.mode == FioMode::kRandRead) {
      block_index = static_cast<std::uint64_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(blocks_in_file - 1)));
    } else {
      block_index = i % blocks_in_file;
    }
    const std::uint64_t offset =
        block_index * static_cast<std::uint64_t>(spec_.block_bytes);
    sim::Nanos t;
    if (spec_.mode == FioMode::kSeqWrite) {
      t = path->write(file_id, offset, spec_.block_bytes, spec_.direct, rng,
                      spec_.queue_depth);
    } else {
      t = path->read(file_id, offset, spec_.block_bytes, spec_.direct, rng,
                     spec_.queue_depth);
    }
    busy += t;
    result.latencies_us.add(sim::to_micros(t));
  }
  clock.advance(busy);
  const double total_bytes =
      static_cast<double>(spec_.requests) * spec_.block_bytes;
  result.throughput_bytes_per_sec = total_bytes / sim::to_seconds(busy);
  return result;
}

}  // namespace workloads
