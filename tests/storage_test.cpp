// Tests for block paths and shared filesystems (Figures 9 & 10 building
// blocks), including the O_DIRECT/loop-device caching pitfall.
#include <gtest/gtest.h>

#include "hostk/block_device.h"
#include "hostk/host_kernel.h"
#include "hostk/page_cache.h"
#include "sim/rng.h"
#include "stats/summary.h"
#include "storage/block_path.h"
#include "storage/shared_fs.h"

namespace {

using storage::BlockPath;
using storage::BlockPathCatalog;
using storage::BlockPathSpec;
using storage::SharedFs;
using storage::SharedFsProtocol;

struct Fixture {
  hostk::HostKernel kernel;
  hostk::BlockDevice device;
  hostk::PageCache host_cache{1ull << 30};  // 1 GiB host page cache
  sim::Rng rng{77};

  BlockPath make(const BlockPathSpec& spec) {
    return BlockPath(spec, kernel, device, host_cache);
  }
};

double read_throughput_mbps(BlockPath& path, Fixture& f, bool direct,
                            int requests = 64) {
  // Sequential 128 KiB reads over a fresh extent (offset advances),
  // pipelined at libaio queue depth 16 as fio does.
  const std::uint64_t bs = 128 << 10;
  sim::Nanos total = 0;
  for (int i = 0; i < requests; ++i) {
    total += path.read(/*file=*/1, static_cast<std::uint64_t>(i) * bs, bs,
                       direct, f.rng, /*queue_depth=*/16);
  }
  const double bytes = static_cast<double>(bs) * requests;
  return bytes / sim::to_seconds(total) / 1e6;
}

TEST(SharedFsTest, NoneIsFree) {
  const auto fs = SharedFs::make(SharedFsProtocol::kNone);
  sim::Rng rng(1);
  EXPECT_EQ(fs.round_trips(1 << 20), 0u);
  EXPECT_EQ(fs.op_latency(1 << 20, rng), 0);
}

TEST(SharedFsTest, NinePFragmentsAtMsize) {
  const auto fs = SharedFs::make(SharedFsProtocol::kNineP);
  EXPECT_EQ(fs.round_trips(1), 1u);
  EXPECT_EQ(fs.round_trips(256 << 10), 1u);
  EXPECT_EQ(fs.round_trips((256 << 10) + 1), 2u);
}

TEST(SharedFsTest, VirtioFsCheaperThanNineP) {
  const auto ninep = SharedFs::make(SharedFsProtocol::kNineP);
  const auto vfs = SharedFs::make(SharedFsProtocol::kVirtioFs);
  sim::Rng rng(2);
  stats::Summary n, v;
  for (int i = 0; i < 200; ++i) {
    n.add(static_cast<double>(ninep.op_latency(128 << 10, rng)));
    v.add(static_cast<double>(vfs.op_latency(128 << 10, rng)));
  }
  EXPECT_GT(n.mean(), v.mean() * 2.5);
}

TEST(BlockPathTest, NativeDirectReadMatchesDevice) {
  Fixture f;
  auto path = f.make(BlockPathCatalog::native());
  const double mbps = read_throughput_mbps(path, f, /*direct=*/true);
  // Device: 3.3 GB/s sequential; 128k requests pay base latency each.
  EXPECT_GT(mbps, 1000.0);
  EXPECT_LT(mbps, 3300.0);
}

TEST(BlockPathTest, SecureContainersAtMostHalfNative) {
  Fixture f;
  auto native = f.make(BlockPathCatalog::native());
  const double native_mbps = read_throughput_mbps(native, f, true);
  for (const auto& spec :
       {BlockPathCatalog::kata_9p(), BlockPathCatalog::gvisor_gofer_9p()}) {
    f.host_cache.drop_caches();
    auto path = f.make(spec);
    const double mbps = read_throughput_mbps(path, f, true);
    EXPECT_LT(mbps, native_mbps * 0.55) << spec.name;
  }
}

TEST(BlockPathTest, KataVirtioFsOnParWithQemu) {
  Fixture f;
  auto qemu = f.make(BlockPathCatalog::qemu_virtio_blk());
  auto kata_vfs = f.make(BlockPathCatalog::kata_virtio_fs());
  const double q = read_throughput_mbps(qemu, f, true);
  f.host_cache.drop_caches();
  const double k = read_throughput_mbps(kata_vfs, f, true);
  EXPECT_GT(k / q, 0.8);
}

TEST(BlockPathTest, CloudHypervisorPoorThroughputGoodLatency) {
  Fixture f;
  auto ch = f.make(BlockPathCatalog::cloud_hypervisor_virtio_blk());
  auto qemu = f.make(BlockPathCatalog::qemu_virtio_blk());
  // Throughput clearly below QEMU.
  const double ch_tp = read_throughput_mbps(ch, f, true);
  f.host_cache.drop_caches();
  const double q_tp = read_throughput_mbps(qemu, f, true);
  EXPECT_LT(ch_tp, q_tp * 0.75);
  // 4k randread latency better than QEMU (Finding 9 + Figure 10).
  stats::Summary ch_lat, q_lat;
  for (int i = 0; i < 300; ++i) {
    ch_lat.add(static_cast<double>(
        ch.read(2, static_cast<std::uint64_t>(i) * 7919 * 4096, 4096, true, f.rng)));
    q_lat.add(static_cast<double>(
        qemu.read(3, static_cast<std::uint64_t>(i) * 7919 * 4096, 4096, true, f.rng)));
  }
  EXPECT_LT(ch_lat.mean(), q_lat.mean());
}

TEST(BlockPathTest, KataNinePWorstRandreadLatency) {
  Fixture f;
  auto kata = f.make(BlockPathCatalog::kata_9p());
  auto native = f.make(BlockPathCatalog::native());
  stats::Summary k, n;
  for (int i = 0; i < 300; ++i) {
    k.add(static_cast<double>(
        kata.read(2, static_cast<std::uint64_t>(i) * 104729 * 4096, 4096, true, f.rng)));
    n.add(static_cast<double>(
        native.read(3, static_cast<std::uint64_t>(i) * 104729 * 4096, 4096, true, f.rng)));
  }
  EXPECT_GT(k.mean(), n.mean() * 1.8);
}

TEST(BlockPathTest, GvisorDirectFlagDoesNotPropagate) {
  Fixture f;
  auto gv = f.make(BlockPathCatalog::gvisor_gofer_9p());
  // First pass populates the host cache even though the guest asked for
  // O_DIRECT; second pass is served from the host cache (faster — the
  // artifact that forced the paper to exclude gVisor from Figure 10).
  const double first = read_throughput_mbps(gv, f, /*direct=*/true);
  const double second = read_throughput_mbps(gv, f, /*direct=*/true);
  EXPECT_GT(second, first * 1.25);
}

TEST(BlockPathTest, DropHostCacheRestoresDeviceSpeeds) {
  Fixture f;
  auto gv = f.make(BlockPathCatalog::gvisor_gofer_9p());
  read_throughput_mbps(gv, f, true);         // warm host cache
  gv.drop_host_cache();                      // paper's remedy between runs
  const double after_drop = read_throughput_mbps(gv, f, true);
  gv.drop_host_cache();
  const double cold = read_throughput_mbps(gv, f, true);
  EXPECT_NEAR(after_drop / cold, 1.0, 0.25);
}

TEST(BlockPathTest, NativeDirectBypassesHostCache) {
  Fixture f;
  auto native = f.make(BlockPathCatalog::native());
  const double first = read_throughput_mbps(native, f, true);
  const double second = read_throughput_mbps(native, f, true);
  // No cache effect for propagated O_DIRECT.
  EXPECT_NEAR(second / first, 1.0, 0.2);
}

TEST(BlockPathTest, BufferedReadUsesHostCache) {
  Fixture f;
  auto native = f.make(BlockPathCatalog::native());
  const double cold = read_throughput_mbps(native, f, /*direct=*/false);
  const double warm = read_throughput_mbps(native, f, /*direct=*/false);
  EXPECT_GT(warm, cold * 1.5);
}

TEST(BlockPathTest, WritesNoisierOnHypervisors) {
  Fixture f;
  auto native = f.make(BlockPathCatalog::native());
  auto qemu = f.make(BlockPathCatalog::qemu_virtio_blk());
  stats::Summary n, q;
  const std::uint64_t bs = 128 << 10;
  for (int i = 0; i < 400; ++i) {
    n.add(static_cast<double>(
        native.write(4, static_cast<std::uint64_t>(i) * bs, bs, true, f.rng)));
    q.add(static_cast<double>(
        qemu.write(5, static_cast<std::uint64_t>(i) * bs, bs, true, f.rng)));
  }
  EXPECT_GT(q.cv(), n.cv());
}

TEST(BlockPathTest, NinePTrafficRecordsVsockMessaging) {
  Fixture f;
  auto kata = f.make(BlockPathCatalog::kata_9p());
  f.kernel.ftrace().start();
  kata.read(1, 0, 128 << 10, true, f.rng);
  const auto& reg = f.kernel.registry();
  EXPECT_GT(f.kernel.ftrace().count_of(reg.id_of("tcp_sendmsg")), 0u);
  EXPECT_GT(f.kernel.ftrace().count_of(reg.id_of("io_submit_one")), 0u);
}

}  // namespace
