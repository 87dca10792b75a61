#include "platforms/hypervisor_platforms.h"

#include "net/net_path.h"
#include "sim/distribution.h"
#include "storage/block_path.h"

namespace platforms {

using hostk::Syscall;

namespace {
// Host syscalls any general-purpose VMM process issues while serving a
// guest: file-backed images, guest-memory management, monitor/QMP
// sockets, worker-thread signaling. Cloud Hypervisor deliberately does
// NOT go through here — its work-in-progress feature surface is the
// reason Finding 25 measures so few host functions for it.
void record_vmm_userspace_surface(hostk::HostKernel& k, sim::Rng& rng) {
  k.record(Syscall::kOpenat, rng, 6);
  k.record(Syscall::kClose, rng, 6);
  k.record(Syscall::kFstat, rng, 4);
  k.record(Syscall::kStatx, rng, 2);
  k.record(Syscall::kMmap, rng, 8);
  k.record(Syscall::kMunmap, rng, 4);
  k.record(Syscall::kBrk, rng, 2);
  k.record(Syscall::kMadvise, rng, 4);
  k.record(Syscall::kSocket, rng, 1);   // monitor socket
  k.record(Syscall::kAccept4, rng, 1);
  k.record(Syscall::kSendmsg, rng, 2);
  k.record(Syscall::kRecvmsg, rng, 2);
  k.record(Syscall::kPipe2, rng, 1);
  k.record(Syscall::kDup3, rng, 1);
  k.record(Syscall::kFcntl, rng, 2);
  k.record(Syscall::kGetdents64, rng, 1);
  k.record(Syscall::kReadv, rng, 8);
  k.record(Syscall::kWritev, rng, 8);
  k.record(Syscall::kPread64, rng, 8);
  k.record(Syscall::kPwrite64, rng, 8);
  k.record(Syscall::kWait4, rng, 1);
  k.record(Syscall::kTgkill, rng, 2);   // vCPU-thread kicks
  k.record(Syscall::kRtSigreturn, rng, 2);
  k.record(Syscall::kNanosleep, rng, 2);
  k.record(Syscall::kProcRead, rng, 1);
  k.record(Syscall::kIoctlTun, rng, 4);
  // Disk-image housekeeping: sparse allocation, flush barriers, and the
  // loop-device-backed rootfs path from Section 3.3.
  k.record(Syscall::kFallocate, rng, 1);
  k.record(Syscall::kFsync, rng, 2);
  k.record(Syscall::kLseek, rng, 4);
  k.record(Syscall::kIoctlLoop, rng, 2);
  k.record(Syscall::kConnect, rng, 1);
}
}  // namespace

HypervisorPlatform::HypervisorPlatform(PlatformId id, std::string name,
                                       core::HostSystem& host,
                                       vmm::VmmSpec vmm_spec, VmmFlavor flavor)
    : Platform(id, std::move(name), host),
      vm_(std::move(vmm_spec), host.kernel()),
      flavor_(flavor) {
  set_memory_profile(vm_.memory_profile());
  core::CpuProfile cpu;
  cpu.futex_cost_factor = 1.15;  // guest futexes occasionally trap
  set_cpu_profile(cpu);
}

std::unique_ptr<HypervisorPlatform> HypervisorPlatform::qemu(
    core::HostSystem& host) {
  auto p = std::make_unique<HypervisorPlatform>(
      PlatformId::kQemuKvm, "qemu-kvm", host, vmm::VmmCatalog::qemu_kvm(),
      VmmFlavor::kQemu);
  p->set_net(net::NetPathCatalog::qemu_tap());
  p->set_block(storage::BlockPathCatalog::qemu_virtio_blk());
  return p;
}

std::unique_ptr<HypervisorPlatform> HypervisorPlatform::firecracker(
    core::HostSystem& host) {
  auto p = std::make_unique<HypervisorPlatform>(
      PlatformId::kFirecracker, "firecracker", host,
      vmm::VmmCatalog::firecracker(), VmmFlavor::kFirecracker);
  Capabilities caps;
  caps.extra_disk = false;  // excluded from the fio figure for this reason
  p->set_capabilities(caps);
  p->set_net(net::NetPathCatalog::firecracker_tap());
  // The ROOT drive still exists (applications like MySQL use it); only a
  // dedicated benchmark disk cannot be attached.
  p->set_block(storage::BlockPathCatalog::firecracker_virtio_blk());
  return p;
}

std::unique_ptr<HypervisorPlatform> HypervisorPlatform::cloud_hypervisor(
    core::HostSystem& host) {
  auto p = std::make_unique<HypervisorPlatform>(
      PlatformId::kCloudHypervisor, "cloud-hypervisor", host,
      vmm::VmmCatalog::cloud_hypervisor(), VmmFlavor::kCloudHypervisor);
  p->set_net(net::NetPathCatalog::cloud_hypervisor_tap());
  p->set_block(storage::BlockPathCatalog::cloud_hypervisor_virtio_blk());
  return p;
}

core::BootTimeline HypervisorPlatform::compose_boot_timeline() const {
  return vm_.boot_timeline();
}

void HypervisorPlatform::record_boot_trace(sim::Rng& rng) {
  vm_.record_boot(rng);
}

sim::Nanos HypervisorPlatform::sync_syscall_cost(sim::Rng& rng) const {
  // Futexes are handled by the *guest* kernel without a VM exit in the
  // common case; contended wakes sometimes kick a halted vCPU.
  const sim::Nanos guest_cost =
      sim::DurationDist::lognormal(sim::nanos(950), 0.2).sample(rng);
  if (rng.chance(0.08)) {
    return guest_cost + sim::micros(1.8);  // kick -> KVM_RUN re-entry
  }
  return guest_cost;
}

void HypervisorPlatform::record_phase(WorkloadClass w, sim::Rng& rng) {
  auto& k = kernel();
  // Common to every class: the guest exits and the VMM event loop.
  const std::uint64_t exits =
      w == WorkloadClass::kCpu ? 24 : (w == WorkloadClass::kMemory ? 80 : 320);
  vm_.record_steady_state(exits, rng);

  switch (flavor_) {
    case VmmFlavor::kQemu:
      // The big general-purpose process: main_loop_wait over many fd
      // sources, timers, bottom-halves (Section 2.1.1).
      record_vmm_userspace_surface(k, rng);
      k.record(Syscall::kEpollWait, rng, 48);
      k.record(Syscall::kClockGettime, rng, 64);
      k.record(Syscall::kNanosleep, rng, 4);
      k.record(Syscall::kFutexWait, rng, 12);
      k.record(Syscall::kFutexWake, rng, 12);
      k.record(Syscall::kEventfd2, rng, 2);
      if (w == WorkloadClass::kIo) {
        k.record(Syscall::kIoSubmit, rng, 96);
        k.record(Syscall::kIoGetevents, rng, 96);
        k.record(Syscall::kPread64, rng, 16);
        k.record(Syscall::kPwrite64, rng, 16);
      }
      if (w == WorkloadClass::kNetwork) {
        net().record_traffic(32ull << 20, host().nic(), rng);
      }
      if (w == WorkloadClass::kMemory) {
        k.record(Syscall::kMadvise, rng, 8);
        k.record(Syscall::kMmap, rng, 4);
      }
      break;

    case VmmFlavor::kFirecracker:
      // Finding 24: the minimalist VMM exposes the WIDEST interface —
      // every virtio kick, timer, API-socket poll and rate-limiter check
      // is an individual small syscall, and the jailer adds the whole
      // namespace/cgroup/chroot surface that other hypervisors never
      // touch. Minimal device model != minimal host interface.
      record_vmm_userspace_surface(k, rng);
      k.record(Syscall::kUnshare, rng, 1);    // jailer namespaces
      k.record(Syscall::kPivotRoot, rng, 1);  // jailer chroot
      k.record(Syscall::kMount, rng, 2);
      k.record(Syscall::kCgroupWrite, rng, 3);
      k.record(Syscall::kSeccompLoad, rng, 1);
      k.record(Syscall::kSetns, rng, 1);
      k.record(Syscall::kClone3, rng, 1);     // jailer -> firecracker
      k.record(Syscall::kExecve, rng, 1);
      k.record(Syscall::kKill, rng, 1);       // watchdog teardown path
      k.record(Syscall::kEpollWait, rng, 160);
      k.record(Syscall::kClockGettime, rng, 128);
      k.record(Syscall::kEventfd2, rng, 4);
      k.record(Syscall::kRead, rng, 96);   // eventfd + device queues
      k.record(Syscall::kWrite, rng, 96);
      k.record(Syscall::kFutexWait, rng, 24);
      k.record(Syscall::kFutexWake, rng, 24);
      k.record(Syscall::kNanosleep, rng, 8);
      k.record(Syscall::kSchedYield, rng, 8);
      k.record(Syscall::kMadvise, rng, 12);  // balloon/dirty tracking
      k.record(Syscall::kMprotect, rng, 6);
      k.record(Syscall::kMmap, rng, 6);
      k.record(Syscall::kAccept4, rng, 1);  // API socket
      k.record(Syscall::kRecvfrom, rng, 4);
      k.record(Syscall::kSendto, rng, 4);
      k.record(Syscall::kStatx, rng, 4);    // jailer chroot checks
      k.record(Syscall::kGetdents64, rng, 2);
      k.record(Syscall::kFcntl, rng, 4);
      k.record(Syscall::kDup3, rng, 2);
      k.record(Syscall::kPipe2, rng, 1);
      k.record(Syscall::kPrctl, rng, 2);
      k.record(Syscall::kTgkill, rng, 2);   // vCPU thread signaling
      k.record(Syscall::kRtSigreturn, rng, 2);
      k.record(Syscall::kProcRead, rng, 2);
      if (w == WorkloadClass::kIo) {
        k.record(Syscall::kPread64, rng, 128);
        k.record(Syscall::kPwrite64, rng, 128);
        k.record(Syscall::kFsync, rng, 8);
      }
      if (w == WorkloadClass::kNetwork) {
        net().record_traffic(32ull << 20, host().nic(), rng);
        k.record(Syscall::kReadv, rng, 64);
        k.record(Syscall::kWritev, rng, 64);
      }
      break;

    case VmmFlavor::kCloudHypervisor:
      // Finding 25: surprisingly few host functions — the work-in-progress
      // VMM simply does not exercise much of the host surface yet.
      k.record(Syscall::kEpollWait, rng, 24);
      k.record(Syscall::kRead, rng, 16);
      k.record(Syscall::kWrite, rng, 16);
      k.record(Syscall::kClockGettime, rng, 16);
      if (w == WorkloadClass::kIo) {
        k.record(Syscall::kPread64, rng, 32);
        k.record(Syscall::kPwrite64, rng, 32);
      }
      if (w == WorkloadClass::kNetwork) {
        net().record_traffic(32ull << 20, host().nic(), rng);
      }
      break;
  }
}

}  // namespace platforms
