#include "platforms/container_platforms.h"

#include "net/net_path.h"
#include "storage/block_path.h"
#include "vmm/vm_memory.h"

namespace platforms {

using container::RuntimeCatalog;
using hostk::Syscall;

namespace {
// Containers share the host kernel: workload-induced host activity is the
// native activity plus namespace/cgroup bookkeeping.
void record_shared_kernel_workload(Platform& p, hostk::HostKernel& k,
                                   WorkloadClass w, sim::Rng& rng) {
  switch (w) {
    case WorkloadClass::kCpu:
      k.record(Syscall::kClockGettime, rng, 32);
      k.record(Syscall::kSchedYield, rng, 4);
      k.record(Syscall::kFutexWait, rng, 2);
      k.record(Syscall::kFutexWake, rng, 2);
      break;
    case WorkloadClass::kMemory:
      k.record(Syscall::kMmap, rng, 16);
      k.record(Syscall::kMadvise, rng, 8);
      k.record(Syscall::kBrk, rng, 4);
      k.record(Syscall::kMunmap, rng, 16);
      break;
    case WorkloadClass::kIo:
      k.record(Syscall::kOpenat, rng, 4);
      k.record(Syscall::kIoSubmit, rng, 64);
      k.record(Syscall::kIoGetevents, rng, 64);
      k.record(Syscall::kFsync, rng, 2);
      k.record(Syscall::kClose, rng, 4);
      break;
    case WorkloadClass::kNetwork:
      p.net().record_traffic(32ull << 20, p.host().nic(), rng);
      k.record(Syscall::kEpollWait, rng, 16);
      break;
    case WorkloadClass::kStartup:
      break;  // Platform::record_workload records a boot trace instead
  }
  // cgroup accounting shows up on every class.
  k.record(Syscall::kCgroupWrite, rng, 1);
  k.record(Syscall::kProcRead, rng, 1);
}
}  // namespace

DockerPlatform::DockerPlatform(core::HostSystem& host, bool via_daemon)
    : Platform(PlatformId::kDocker,
               via_daemon ? "docker" : "docker-oci", host),
      runtime_(via_daemon ? RuntimeCatalog::docker_daemon()
                          : RuntimeCatalog::runc_oci(),
               host.kernel()) {
  set_memory_profile(vmm::MemoryBackingCatalog::host_native().profile);
  set_net(net::NetPathCatalog::docker_bridge());
  set_block(storage::BlockPathCatalog::docker_bind_mount());
}

core::BootTimeline DockerPlatform::compose_boot_timeline() const {
  return runtime_.boot_timeline();
}

void DockerPlatform::record_boot_trace(sim::Rng& rng) {
  runtime_.record_boot(rng);
}

void DockerPlatform::record_phase(WorkloadClass w, sim::Rng& rng) {
  record_shared_kernel_workload(*this, kernel(), w, rng);
}

LxcPlatform::LxcPlatform(core::HostSystem& host, bool unprivileged)
    : Platform(PlatformId::kLxc, unprivileged ? "lxc-unpriv" : "lxc", host),
      runtime_(unprivileged ? RuntimeCatalog::lxc_unprivileged()
                            : RuntimeCatalog::lxc(),
               host.kernel()) {
  set_memory_profile(vmm::MemoryBackingCatalog::host_native().profile);
  set_net(net::NetPathCatalog::lxc_bridge());
  set_block(storage::BlockPathCatalog::lxc_zfs());
}

core::BootTimeline LxcPlatform::compose_boot_timeline() const {
  return runtime_.boot_timeline();
}

void LxcPlatform::record_boot_trace(sim::Rng& rng) {
  runtime_.record_boot(rng);
}

void LxcPlatform::record_phase(WorkloadClass w, sim::Rng& rng) {
  record_shared_kernel_workload(*this, kernel(), w, rng);
}

}  // namespace platforms
