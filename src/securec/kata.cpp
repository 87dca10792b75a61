#include "securec/kata.h"

#include "container/runtime.h"
#include "sim/distribution.h"

namespace securec {

using hostk::Syscall;
using sim::DurationDist;
using sim::millis;

KataRuntime::KataRuntime(KataSpec spec, hostk::HostKernel& host)
    : spec_(spec),
      host_(&host),
      vm_(vmm::VmmCatalog::kata_vm(), host) {}

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
  host_->record(Syscall::kKvmCreateVm, rng, 1);
  host_->record(Syscall::kKvmCreateVcpu, rng, 4);
  host_->record(Syscall::kKvmSetUserMemoryRegion, rng, 4);
  host_->record(Syscall::kMmap, rng, 6);
  host_->record(Syscall::kKvmIoeventfd, rng, 9);
  host_->record(Syscall::kKvmRun, rng, 48);
  host_->record(Syscall::kVsockSend, rng, 6);
  host_->record(Syscall::kVsockRecv, rng, 6);
  host_->record(Syscall::kMount, rng, 2);  // shared rootfs mountpoint
  if (spec_.via_docker_daemon) {
    container::record_docker_daemon_rpc(*host_, rng);
  }
}

}  // namespace securec
