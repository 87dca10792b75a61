// Container runtimes: runc (Docker's), LXC, and the Docker daemon path.
//
// Figure 13 separates the cost of the container runtime proper (the "OCI"
// series, invoking runc/runsc directly) from the Docker daemon's
// client-server round trip, which adds roughly 250 ms. LXC's outlier boot
// time comes from its full systemd init (Finding 13).
#pragma once

#include <string>

#include "container/cgroups.h"
#include "container/init_system.h"
#include "container/namespaces.h"
#include "core/boot.h"
#include "hostk/host_kernel.h"

namespace container {

/// Storage driver backing the container's root filesystem.
enum class StorageDriver { kOverlay2, kZfs, kBindMount };

std::string storage_driver_name(StorageDriver d);

/// Declarative runtime configuration.
struct RuntimeSpec {
  std::string name;
  NamespaceSet namespaces = NamespaceSet::runc_default();
  CgroupVersion cgroup_version = CgroupVersion::kV1;
  CgroupLimits limits;
  StorageDriver storage = StorageDriver::kOverlay2;
  InitKind init = InitKind::kTini;
  bool seccomp_filter = true;
  /// Container creation goes through dockerd + containerd-shim instead of
  /// invoking the OCI runtime directly.
  bool via_docker_daemon = false;
  /// Extra runtime-specific stages prepended before namespace setup
  /// (e.g. gVisor's Sentry+Gofer launch; Kata's hypervisor boot is added
  /// by the Kata runtime itself).
  core::BootTimeline runtime_extra;
};

/// A container runtime instance bound to a host kernel.
class ContainerRuntime {
 public:
  ContainerRuntime(RuntimeSpec spec, hostk::HostKernel& host);

  const RuntimeSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }

  /// Full create-to-exit timeline (Figure 13's end-to-end convention).
  /// Composed on the first call and kept (the spec is fixed once the
  /// runtime is constructed).
  const core::BootTimeline& boot_timeline() const;

  /// One container creation as the host sees it: the HAP-visible setup
  /// syscalls, then one sample of the boot's duration, which no caller
  /// reads.
  void record_boot(sim::Rng& rng);

 private:
  core::BootTimeline storage_timeline() const;

  RuntimeSpec spec_;
  hostk::HostKernel* host_;
  mutable core::BootTimeline timeline_;  // empty until first composed
};

/// The Docker daemon's client-server path ahead of the OCI runtime
/// (Figure 13: ~250 ms over direct invocation). `shim` names the last
/// stage, the containerd shim that launches the sandbox.
core::BootTimeline docker_daemon_timeline(const std::string& shim);

/// The CLI <-> dockerd RPC over the unix socket, as the host traces it.
void record_docker_daemon_rpc(hostk::HostKernel& host, sim::Rng& rng);

/// Runtime catalog for the container platforms of Figure 13.
class RuntimeCatalog {
 public:
  static RuntimeSpec runc_oci();        // docker's runtime, invoked directly
  static RuntimeSpec docker_daemon();   // full dockerd -> containerd -> runc
  static RuntimeSpec lxc();             // systemd init, ZFS storage
  static RuntimeSpec lxc_unprivileged();
};

}  // namespace container
