#include "storage/block_path.h"

#include <algorithm>

namespace storage {

using hostk::Syscall;

BlockPath::BlockPath(BlockPathSpec spec, hostk::HostKernel& kernel,
                     hostk::BlockDevice& device, hostk::PageCache& host_cache)
    : spec_(std::move(spec)),
      shared_fs_(SharedFs::make(spec_.shared_fs)),
      kernel_(&kernel),
      device_(&device),
      host_cache_(&host_cache) {}

sim::Nanos BlockPath::device_read(std::uint64_t bytes, sim::Rng& rng,
                                  std::uint32_t queue_depth) {
  const std::uint32_t qd = std::max<std::uint32_t>(1, queue_depth);
  // Access latency overlaps across in-flight requests; the bandwidth-bound
  // transfer term is stretched by the path's efficiency.
  sim::Nanos t = device_->read_base(rng) / qd;
  t += static_cast<sim::Nanos>(
      static_cast<double>(device_->read_transfer(bytes)) /
      std::max(0.01, spec_.read_bw_efficiency));
  return t;
}

sim::Nanos BlockPath::device_write(std::uint64_t bytes, sim::Rng& rng,
                                   std::uint32_t queue_depth) {
  const std::uint32_t qd = std::max<std::uint32_t>(1, queue_depth);
  sim::Nanos t = device_->write_base(rng) / qd;
  t += static_cast<sim::Nanos>(
      static_cast<double>(device_->write_transfer(bytes)) /
      std::max(0.01, spec_.write_bw_efficiency));
  if (spec_.write_jitter > 0.0) {
    const double factor = std::max(0.2, rng.normal(1.0, spec_.write_jitter));
    t = static_cast<sim::Nanos>(static_cast<double>(t) * factor);
  }
  return t;
}

void BlockPath::record_io_syscalls(std::uint64_t bytes, bool is_write,
                                   sim::Rng& rng) {
  if (!kernel_->ftrace().recording()) {
    return;
  }
  // libaio-style submission on the host side of the path.
  kernel_->record(Syscall::kIoSubmit, rng, 1);
  kernel_->record(Syscall::kIoGetevents, rng, 1);
  if (spec_.shared_fs == SharedFsProtocol::kNineP) {
    const std::uint64_t trips = shared_fs_.round_trips(bytes);
    kernel_->record(Syscall::kSendmsg, rng, trips);
    kernel_->record(Syscall::kRecvmsg, rng, trips);
  }
  if (!spec_.direct_flag_propagates) {
    kernel_->record(Syscall::kIoctlLoop, rng, 1);
  }
  (void)is_write;
}

sim::Nanos BlockPath::read(std::uint64_t file, std::uint64_t offset,
                           std::uint64_t bytes, bool direct, sim::Rng& rng,
                           std::uint32_t queue_depth) {
  // Virtio kicks and vm exits batch across queued requests, so the fixed
  // per-request virtualization cost amortizes at depth (which is why QEMU
  // throughput is near native in Figure 9 while its QD1 latency is not).
  sim::Nanos t = spec_.per_request_extra / std::max<std::uint32_t>(1, queue_depth);
  t += shared_fs_.op_latency(bytes, rng);
  record_io_syscalls(bytes, /*is_write=*/false, rng);

  const bool host_may_cache = !spec_.direct_flag_propagates || !direct;
  if (host_may_cache) {
    const std::uint64_t missed_pages = host_cache_->access_range(file, offset, bytes);
    const std::uint64_t missed_bytes = missed_pages * hostk::PageCache::kPageSize;
    if (missed_bytes > 0) {
      t += device_read(std::min(missed_bytes, std::max<std::uint64_t>(bytes, 1)),
                       rng, queue_depth);
    } else {
      // Served entirely from the host page cache: memcpy speed. This is the
      // "hypervisor beats native" artifact the paper warns about.
      t += sim::seconds(static_cast<double>(bytes) / 8.0e9);
    }
  } else {
    t += device_read(bytes, rng, queue_depth);
  }
  return t;
}

sim::Nanos BlockPath::write(std::uint64_t file, std::uint64_t offset,
                            std::uint64_t bytes, bool direct, sim::Rng& rng,
                            std::uint32_t queue_depth) {
  sim::Nanos t = spec_.per_request_extra / std::max<std::uint32_t>(1, queue_depth);
  t += shared_fs_.op_latency(bytes, rng);
  record_io_syscalls(bytes, /*is_write=*/true, rng);

  const bool host_may_cache = !spec_.direct_flag_propagates || !direct;
  if (host_may_cache) {
    // Write-back into the host cache; charge device time probabilistically
    // to model background writeback pressure at fio's sustained rates.
    host_cache_->access_range(file, offset, bytes);
    if (rng.chance(0.85)) {
      t += device_write(bytes, rng, queue_depth);
    } else {
      t += sim::seconds(static_cast<double>(bytes) / 8.0e9);
    }
  } else {
    t += device_write(bytes, rng, queue_depth);
  }
  return t;
}

void BlockPath::drop_host_cache() { host_cache_->drop_caches(); }

// --- Catalog -----------------------------------------------------------
// Efficiencies stretch only the bandwidth-bound transfer term; fixed
// virtualization costs go into per_request_extra (latency-visible) so that
// a platform can have poor throughput yet good latency (Cloud Hypervisor)
// or the reverse.

BlockPathSpec BlockPathCatalog::native() {
  return {.name = "native",
          .read_bw_efficiency = 1.0,
          .write_bw_efficiency = 1.0,
          .per_request_extra = 0,
          .write_jitter = 0.02,
          .direct_flag_propagates = true};
}

BlockPathSpec BlockPathCatalog::docker_bind_mount() {
  // A bind mount is the host filesystem; only cgroup accounting on top.
  return {.name = "docker(bind)",
          .read_bw_efficiency = 0.995,
          .write_bw_efficiency = 0.97,
          .per_request_extra = sim::micros(1),
          .write_jitter = 0.06,
          .direct_flag_propagates = true};
}

BlockPathSpec BlockPathCatalog::lxc_zfs() {
  // Dedicated ZFS pool: checksumming + COW tax, still close to native.
  return {.name = "lxc(zfs)",
          .read_bw_efficiency = 0.965,
          .write_bw_efficiency = 0.93,
          .per_request_extra = sim::micros(3),
          .write_jitter = 0.07,
          .direct_flag_propagates = true};
}

BlockPathSpec BlockPathCatalog::qemu_virtio_blk() {
  // Attached as an extra virtio-blk drive: throughput near native, latency
  // pays the virtio kick + vm exit, writes noisier (Figure 9/10).
  return {.name = "qemu(virtio-blk)",
          .read_bw_efficiency = 0.985,
          .write_bw_efficiency = 0.95,
          .per_request_extra = sim::micros(24),
          .write_jitter = 0.10,
          .direct_flag_propagates = true};
}

BlockPathSpec BlockPathCatalog::cloud_hypervisor_virtio_blk() {
  // Finding 9: markedly lower throughput than QEMU, but remarkably good
  // random-read latency.
  return {.name = "cloud-hypervisor(virtio-blk)",
          .read_bw_efficiency = 0.42,
          .write_bw_efficiency = 0.36,
          .per_request_extra = sim::micros(7),
          .write_jitter = 0.16,
          .direct_flag_propagates = true};
}

BlockPathSpec BlockPathCatalog::firecracker_virtio_blk() {
  // Firecracker cannot attach a second block device, so Figure 9 excludes
  // it (Capabilities::extra_disk).
  return {.name = "firecracker(virtio-blk)",
          .read_bw_efficiency = 0.9,
          .write_bw_efficiency = 0.85,
          .per_request_extra = sim::micros(26),
          .write_jitter = 0.12,
          .direct_flag_propagates = true};
}

BlockPathSpec BlockPathCatalog::kata_9p() {
  // Shared rootfs over 9p: the paper's worst I/O performer (Finding 6/8),
  // exceptionally poor random-read latency (Figure 10). The virtio layer
  // itself is fine — the synchronous 9p protocol is the bottleneck.
  return {.name = "kata(9p)",
          .read_bw_efficiency = 0.90,
          .write_bw_efficiency = 0.85,
          .per_request_extra = sim::micros(12),
          .write_jitter = 0.15,
          .direct_flag_propagates = true,
          .shared_fs = SharedFsProtocol::kNineP};
}

BlockPathSpec BlockPathCatalog::kata_virtio_fs() {
  // Finding 7: virtio-fs brings Kata on par with QEMU.
  return {.name = "kata(virtio-fs)",
          .read_bw_efficiency = 0.93,
          .write_bw_efficiency = 0.90,
          .per_request_extra = sim::micros(26),
          .write_jitter = 0.11,
          .direct_flag_propagates = true,
          .shared_fs = SharedFsProtocol::kVirtioFs};
}

BlockPathSpec BlockPathCatalog::gvisor_gofer_9p() {
  // Sentry -> Gofer over 9p; Gofer opens files without O_DIRECT, so guest
  // "direct" reads are host-cached — the paper had to exclude gVisor from
  // the randread figure because of exactly this.
  return {.name = "gvisor(gofer+9p)",
          .read_bw_efficiency = 0.50,
          .write_bw_efficiency = 0.44,
          .per_request_extra = sim::micros(22),
          .write_jitter = 0.14,
          .direct_flag_propagates = false,
          .shared_fs = SharedFsProtocol::kNineP};
}

BlockPathSpec BlockPathCatalog::osv_zfs() {
  // OSv's ZFS-based VFS over virtio-blk; fio's libaio engine does not work
  // on OSv, so the paper excludes it from the fio figures
  // (Capabilities::libaio).
  return {.name = "osv(zfs)",
          .read_bw_efficiency = 0.9,
          .write_bw_efficiency = 0.86,
          .per_request_extra = sim::micros(20),
          .write_jitter = 0.1,
          .direct_flag_propagates = true};
}

}  // namespace storage
