// Kata Containers architecture: kata-runtime, hypervisor, kata-agent.
//
// Section 2.3.1 / Figure 2: the OCI command reaches kata-runtime, which
// boots a stripped QEMU VM (optimized kernel + Clear Linux mini-OS whose
// systemd immediately starts the kata-agent). The runtime talks to the
// agent over a ttRPC server exposed through a vsock; the agent creates a
// namespaced+cgrouped context inside the VM whose rootfs is the original
// container image passed through a shared mount (9p, or virtio-fs).
#pragma once

#include "container/namespaces.h"
#include "core/boot.h"
#include "hostk/host_kernel.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "storage/shared_fs.h"
#include "vmm/vm.h"

namespace securec {

struct KataSpec {
  storage::SharedFsProtocol shared_fs = storage::SharedFsProtocol::kNineP;
  bool via_docker_daemon = false;
};

/// The Kata runtime: orchestrates VM boot and in-guest container setup.
class KataRuntime {
 public:
  KataRuntime(KataSpec spec, hostk::HostKernel& host);

  const KataSpec& spec() const { return spec_; }

  /// End-to-end sandbox creation timeline (Figure 13's ~600 ms series):
  /// runtime invocation, VM boot (stripped kernel + mini-OS + agent),
  /// vsock handshake, in-guest namespace/cgroup setup, workload exec.
  core::BootTimeline boot_timeline() const;

  /// HAP-visible boot: KVM setup by QEMU + vsock + shared-fs mounts.
  void record_boot(sim::Rng& rng);

 private:
  KataSpec spec_;
  hostk::HostKernel* host_;
  vmm::Vm vm_;
};

}  // namespace securec
