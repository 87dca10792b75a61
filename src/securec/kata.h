// Kata Containers architecture: kata-runtime, hypervisor, kata-agent.
//
// Section 2.3.1 / Figure 2: the OCI command reaches kata-runtime, which
// boots a stripped QEMU VM (optimized kernel + Clear Linux mini-OS whose
// systemd immediately starts the kata-agent). The runtime talks to the
// agent over a ttRPC server exposed through a vsock; the agent creates a
// namespaced+cgrouped context inside the VM whose rootfs is the original
// container image passed through a shared mount (9p, or virtio-fs).
#pragma once

#include <cstdint>

#include "container/namespaces.h"
#include "core/boot.h"
#include "hostk/host_kernel.h"
#include "sim/clock.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "storage/shared_fs.h"
#include "vmm/vm.h"

namespace securec {

/// The host<->guest control channel (ttRPC over vsock).
///
/// Supports failure injection: with a configured drop probability each
/// vsock exchange can time out and be retried (ttRPC's deadline-based
/// retry), which tests use to verify control-plane robustness accounting.
class TtRpcChannel {
 public:
  explicit TtRpcChannel(hostk::HostKernel& host);

  /// One request/response exchange with the kata-agent. Retries dropped
  /// exchanges up to `max_retries`; throws std::runtime_error when the
  /// channel stays dead beyond that.
  sim::Nanos call(std::uint64_t payload_bytes, sim::Rng& rng);

  /// Failure injection: probability that one exchange is dropped.
  void set_drop_probability(double p) { drop_probability_ = p; }
  void set_max_retries(int retries) { max_retries_ = retries; }

  std::uint64_t calls_made() const { return calls_; }
  std::uint64_t retries_performed() const { return retries_; }

 private:
  hostk::HostKernel* host_;
  std::uint64_t calls_ = 0;
  std::uint64_t retries_ = 0;
  double drop_probability_ = 0.0;
  int max_retries_ = 3;
};

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

  /// `docker exec` forwarding: runtime -> ttRPC -> agent -> new process.
  sim::Nanos exec_in_guest(sim::Clock& clock, sim::Rng& rng);

  TtRpcChannel& channel() { return channel_; }

 private:
  KataSpec spec_;
  hostk::HostKernel* host_;
  vmm::Vm vm_;
  TtRpcChannel channel_;
};

}  // namespace securec
