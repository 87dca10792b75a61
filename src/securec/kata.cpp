#include "securec/kata.h"

#include <stdexcept>

#include "container/runtime.h"
#include "sim/distribution.h"

namespace securec {

using hostk::Syscall;
using sim::DurationDist;
using sim::micros;
using sim::millis;

TtRpcChannel::TtRpcChannel(hostk::HostKernel& host) : host_(&host) {}

sim::Nanos TtRpcChannel::call(std::uint64_t payload_bytes, sim::Rng& rng) {
  ++calls_;
  sim::Nanos cost = 0;
  const std::uint64_t frames =
      std::max<std::uint64_t>(1, payload_bytes / (64 << 10));
  for (int attempt = 0; attempt <= max_retries_; ++attempt) {
    cost += host_->invoke(Syscall::kVsockSend, rng, frames);
    if (drop_probability_ > 0.0 && rng.chance(drop_probability_)) {
      // Exchange lost: ttRPC waits out its deadline and retries.
      ++retries_;
      cost += DurationDist::lognormal(millis(25), 0.2).sample(rng);
      continue;
    }
    cost += host_->invoke(Syscall::kVsockRecv, rng, frames);
    // Serialization + agent-side dispatch.
    cost += DurationDist::lognormal(micros(140), 0.25).sample(rng);
    return cost;
  }
  throw std::runtime_error("TtRpcChannel: agent unreachable over vsock");
}

KataRuntime::KataRuntime(KataSpec spec, hostk::HostKernel& host)
    : spec_(spec),
      host_(&host),
      vm_(vmm::VmmCatalog::kata_vm(), host),
      channel_(host) {}

core::BootTimeline KataRuntime::boot_timeline() const {
  core::BootTimeline t;
  if (spec_.via_docker_daemon) {
    t.append(container::docker_daemon_timeline("containerd-shim-kata-v2"));
  }
  t.stage("kata:runtime-invoke", DurationDist::lognormal(millis(14), 0.18));
  // The VM: stripped kernel, Clear Linux mini-OS, systemd -> kata-agent.
  t.append(vm_.boot_timeline());
  t.stage("kata:vsock-ttrpc-handshake", DurationDist::lognormal(millis(35), 0.2));
  t.stage("kata:share-rootfs-" + storage::shared_fs_name(spec_.shared_fs),
          DurationDist::lognormal(millis(45), 0.2));
  // Confined context inside the guest (namespaces + cgroups there).
  t.append(container::NamespaceSet::runc_default().setup_timeline());
  t.stage("kata:agent-exec-workload", DurationDist::lognormal(millis(12), 0.2));
  return t;
}

void KataRuntime::record_boot(sim::Rng& rng) {
  // QEMU's KVM setup happens on the host. In-guest namespace setup does
  // NOT touch the host kernel — that's Kata's defense-in-depth.
  host_->invoke(Syscall::kKvmCreateVm, rng, 1);
  host_->invoke(Syscall::kKvmCreateVcpu, rng, 4);
  host_->invoke(Syscall::kKvmSetUserMemoryRegion, rng, 4);
  host_->invoke(Syscall::kMmap, rng, 6);
  host_->invoke(Syscall::kKvmIoeventfd, rng, 9);
  host_->invoke(Syscall::kKvmRun, rng, 48);
  host_->invoke(Syscall::kVsockSend, rng, 6);
  host_->invoke(Syscall::kVsockRecv, rng, 6);
  host_->invoke(Syscall::kMount, rng, 2);  // shared rootfs mountpoint
  if (spec_.via_docker_daemon) {
    container::record_docker_daemon_rpc(*host_, rng);
  }
}

sim::Nanos KataRuntime::exec_in_guest(sim::Clock& clock, sim::Rng& rng) {
  // kata-runtime forwards the command to the agent, which clones a process
  // inside the confined context (Section 2.3.1).
  sim::Nanos cost = channel_.call(4096, rng);
  cost += DurationDist::lognormal(millis(9), 0.2).sample(rng);
  clock.advance(cost);
  return cost;
}

}  // namespace securec
