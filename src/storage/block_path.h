// Per-platform block I/O paths from a guest request down to the host NVMe.
//
// Reproduces the fio experiments (Figures 9 & 10) including the paper's
// methodological pitfall: a guest root filesystem presented through a loop
// device does not propagate O_DIRECT, so "direct" guest I/O may still be
// served by the *host* page cache unless the host cache is dropped first.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "hostk/block_device.h"
#include "hostk/host_kernel.h"
#include "hostk/page_cache.h"
#include "sim/rng.h"
#include "sim/time.h"

#include "storage/shared_fs.h"

namespace storage {

/// Declarative description of one platform's block datapath.
struct BlockPathSpec {
  std::string name;
  /// Throughput efficiency vs raw device, sequential 128 KiB requests.
  double read_bw_efficiency = 1.0;
  double write_bw_efficiency = 1.0;
  /// Fixed latency added to every request by virtualization layers.
  sim::Nanos per_request_extra = 0;
  /// Additional relative stddev on writes (hypervisor write paths are
  /// noisier; Figure 9's error bars).
  double write_jitter = 0.0;
  /// Whether O_DIRECT from the guest reaches the host block layer.
  /// False for loop-device-backed guests and for gVisor's Gofer.
  bool direct_flag_propagates = true;
  /// Shared-fs protocol in front of the block layer (secure containers).
  SharedFsProtocol shared_fs = SharedFsProtocol::kNone;
};

/// Executable block path: combines a spec with the host's NVMe device,
/// the host page cache, and HAP instrumentation.
class BlockPath {
 public:
  BlockPath(BlockPathSpec spec, hostk::HostKernel& kernel,
            hostk::BlockDevice& device, hostk::PageCache& host_cache);

  const BlockPathSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }

  /// One guest read. `direct` is the guest-side O_DIRECT flag; whether it
  /// reaches the device depends on the path (see spec). `file` identifies
  /// the backing file for page-cache purposes. `queue_depth` models libaio
  /// pipelining: device access latency amortizes across in-flight requests
  /// while the transfer (bandwidth) term does not.
  sim::Nanos read(std::uint64_t file, std::uint64_t offset, std::uint64_t bytes,
                  bool direct, sim::Rng& rng, std::uint32_t queue_depth = 1);

  /// One guest write (write-back: host cache absorbs unless direct).
  sim::Nanos write(std::uint64_t file, std::uint64_t offset, std::uint64_t bytes,
                   bool direct, sim::Rng& rng, std::uint32_t queue_depth = 1);

  /// Drop the *host* page cache (the paper's remedy between runs).
  void drop_host_cache();

 private:
  sim::Nanos device_read(std::uint64_t bytes, sim::Rng& rng,
                         std::uint32_t queue_depth);
  sim::Nanos device_write(std::uint64_t bytes, sim::Rng& rng,
                          std::uint32_t queue_depth);
  void record_io_syscalls(std::uint64_t bytes, bool is_write, sim::Rng& rng);

  BlockPathSpec spec_;
  SharedFs shared_fs_;
  hostk::HostKernel* kernel_;
  hostk::BlockDevice* device_;
  hostk::PageCache* host_cache_;
};

/// Catalog of the paper's platforms, calibrated to Figures 9 & 10.
class BlockPathCatalog {
 public:
  static BlockPathSpec native();
  static BlockPathSpec docker_bind_mount();
  static BlockPathSpec lxc_zfs();
  static BlockPathSpec qemu_virtio_blk();
  static BlockPathSpec cloud_hypervisor_virtio_blk();
  static BlockPathSpec firecracker_virtio_blk();
  static BlockPathSpec kata_9p();
  static BlockPathSpec kata_virtio_fs();
  static BlockPathSpec gvisor_gofer_9p();
  static BlockPathSpec osv_zfs();
};

}  // namespace storage
