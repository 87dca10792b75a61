// Control groups — resource constraint mechanism for containers.
//
// runc and LXC both constrain containers through cgroups; LXC already
// supports the newer unified (v2) hierarchy for unprivileged containers
// (Section 2.2.2). The model captures setup cost and HAP-visible writes to
// the cgroupfs.
#pragma once

#include <cstdint>
#include <optional>

#include "core/boot.h"
#include "hostk/host_kernel.h"

namespace container {

enum class CgroupVersion { kV1, kV2 };

/// Resource limits a runtime writes into the cgroup.
struct CgroupLimits {
  std::optional<double> cpu_shares;           // relative weight
  std::optional<std::uint64_t> memory_max;    // bytes
  std::optional<std::uint32_t> pids_max;      // task count
  std::optional<double> io_weight;            // blkio weight
};

/// One container's cgroup (a node in the hierarchy).
class Cgroup {
 public:
  Cgroup(CgroupVersion version, CgroupLimits limits);

  /// Number of controller files the runtime writes at setup.
  std::size_t controller_writes() const;

  /// Setup stages: mkdir + one write per configured controller.
  core::BootTimeline setup_timeline() const;

  /// HAP-visible setup syscalls.
  void record_setup(hostk::HostKernel& host, sim::Rng& rng) const;

 private:
  CgroupVersion version_;
  CgroupLimits limits_;
};

}  // namespace container
