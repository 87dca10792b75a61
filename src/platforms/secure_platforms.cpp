#include "platforms/secure_platforms.h"

#include "container/runtime.h"
#include "net/net_path.h"
#include "sim/distribution.h"
#include "storage/block_path.h"
#include "vmm/vm_memory.h"

namespace platforms {

using hostk::Syscall;
using sim::DurationDist;

KataPlatform::KataPlatform(core::HostSystem& host,
                           storage::SharedFsProtocol shared_fs,
                           bool via_daemon)
    : Platform(PlatformId::kKataContainers,
               shared_fs == storage::SharedFsProtocol::kVirtioFs
                   ? "kata-virtiofs"
                   : "kata-containers",
               host),
      runtime_(securec::KataSpec{.shared_fs = shared_fs,
                                 .via_docker_daemon = via_daemon},
               host.kernel()) {
  Capabilities caps;
  caps.hugepages = false;  // the paper: Kata does not support HugePages
  set_capabilities(caps);
  core::CpuProfile cpu;
  cpu.futex_cost_factor = 1.2;
  set_cpu_profile(cpu);
  set_memory_profile(vmm::MemoryBackingCatalog::kata_nvdimm_direct().profile);
  set_net(net::NetPathCatalog::kata_bridge_tap());
  set_block(shared_fs == storage::SharedFsProtocol::kVirtioFs
                ? storage::BlockPathCatalog::kata_virtio_fs()
                : storage::BlockPathCatalog::kata_9p());
}

core::BootTimeline KataPlatform::compose_boot_timeline() const {
  return runtime_.boot_timeline();
}

void KataPlatform::record_boot_trace(sim::Rng& rng) {
  runtime_.record_boot(rng);
}

sim::Nanos KataPlatform::sync_syscall_cost(sim::Rng& rng) const {
  // Handled by the guest kernel inside the VM.
  return DurationDist::lognormal(sim::nanos(1000), 0.2).sample(rng);
}

void KataPlatform::record_phase(WorkloadClass w, sim::Rng& rng) {
  auto& k = kernel();
  // The QEMU instance under kata generates hypervisor-like activity...
  k.record(Syscall::kKvmRun, rng, w == WorkloadClass::kCpu ? 24 : 280);
  k.record(Syscall::kEpollWait, rng, 40);
  k.record(Syscall::kClockGettime, rng, 48);
  k.record(Syscall::kFutexWait, rng, 10);
  k.record(Syscall::kFutexWake, rng, 10);
  // ...the full VMM userspace surface (image files, guest RAM, monitor)...
  k.record(Syscall::kOpenat, rng, 6);
  k.record(Syscall::kClose, rng, 6);
  k.record(Syscall::kFstat, rng, 4);
  k.record(Syscall::kStatx, rng, 2);
  k.record(Syscall::kMmap, rng, 6);
  k.record(Syscall::kMunmap, rng, 3);
  k.record(Syscall::kGetdents64, rng, 1);
  k.record(Syscall::kSocket, rng, 1);
  k.record(Syscall::kAccept4, rng, 1);
  k.record(Syscall::kWait4, rng, 1);
  k.record(Syscall::kTgkill, rng, 2);
  k.record(Syscall::kRtSigreturn, rng, 2);
  k.record(Syscall::kPipe2, rng, 1);
  k.record(Syscall::kFcntl, rng, 1);
  k.record(Syscall::kNanosleep, rng, 2);
  k.record(Syscall::kIoctlTun, rng, 4);
  // ...and the container-runtime half: containerd-shim-kata-v2 process
  // management and image/rootfs plumbing (Finding 26: both worlds' host
  // footprints stack up).
  k.record(Syscall::kClone3, rng, 1);
  k.record(Syscall::kExecve, rng, 1);
  k.record(Syscall::kConnect, rng, 1);
  k.record(Syscall::kSendto, rng, 2);
  k.record(Syscall::kRecvfrom, rng, 2);
  k.record(Syscall::kEventfd2, rng, 1);
  k.record(Syscall::kFallocate, rng, 1);
  k.record(Syscall::kFsync, rng, 2);
  k.record(Syscall::kLseek, rng, 2);
  k.record(Syscall::kIoctlLoop, rng, 2);
  // ...plus the container-side plumbing on the host: shim, vsock control
  // traffic, cgroup accounting (Finding 26: secure containers are high).
  k.record(Syscall::kVsockSend, rng, 6);
  k.record(Syscall::kVsockRecv, rng, 6);
  k.record(Syscall::kCgroupWrite, rng, 2);
  k.record(Syscall::kProcRead, rng, 2);
  k.record(Syscall::kKvmIrqLine, rng, 24);
  k.record(Syscall::kKvmIoeventfd, rng, 24);
  switch (w) {
    case WorkloadClass::kIo: {
      // Shared-fs traffic to serve the guest's disk I/O.
      const std::uint64_t trips =
          runtime_.spec().shared_fs == storage::SharedFsProtocol::kNineP ? 96 : 24;
      k.record(Syscall::kSendmsg, rng, trips);
      k.record(Syscall::kRecvmsg, rng, trips);
      k.record(Syscall::kPread64, rng, 64);
      k.record(Syscall::kPwrite64, rng, 64);
      k.record(Syscall::kOpenat, rng, 8);
      k.record(Syscall::kFstat, rng, 8);
      break;
    }
    case WorkloadClass::kNetwork:
      net().record_traffic(32ull << 20, host().nic(), rng);
      k.record(Syscall::kReadv, rng, 48);
      k.record(Syscall::kWritev, rng, 48);
      break;
    case WorkloadClass::kMemory:
      k.record(Syscall::kMadvise, rng, 8);
      k.record(Syscall::kMmap, rng, 6);
      break;
    default:
      break;
  }
}

GvisorPlatform::GvisorPlatform(core::HostSystem& host,
                               securec::GvisorPlatform intercept,
                               bool via_daemon)
    : Platform(PlatformId::kGvisor,
               intercept == securec::GvisorPlatform::kKvm ? "gvisor-kvm"
                                                          : "gvisor",
               host),
      via_daemon_(via_daemon),
      sentry_(securec::SentrySpec{.platform = intercept}, host.kernel()),
      gofer_(host.kernel()) {
  core::CpuProfile cpu;
  // The Sentry's Go-runtime threading and syscall interception make
  // synchronization-heavy multithreaded work expensive (Finding 21).
  cpu.sched_alpha = 0.011;
  cpu.futex_cost_factor = 5.5;
  cpu.simd_factor = 1.03;
  set_cpu_profile(cpu);
  set_memory_profile(vmm::MemoryBackingCatalog::gvisor_sentry().profile);
  set_net(net::NetPathCatalog::gvisor_netstack());
  set_block(storage::BlockPathCatalog::gvisor_gofer_9p());
}

core::BootTimeline GvisorPlatform::compose_boot_timeline() const {
  core::BootTimeline t;
  if (via_daemon_) {
    t.append(container::docker_daemon_timeline("containerd-shim"));
  }
  t.append(sentry_.boot_timeline());
  t.append(gofer_.boot_timeline());
  t.stage("gvisor:app-exec", DurationDist::lognormal(sim::millis(8), 0.2));
  t.stage("gvisor:teardown", DurationDist::lognormal(sim::millis(4), 0.25));
  return t;
}

void GvisorPlatform::record_boot_trace(sim::Rng& rng) {
  sentry_.record_boot(rng);
  gofer_.handle_request(4096, rng);  // rootfs attach round trip
}

sim::Nanos GvisorPlatform::sync_syscall_cost(sim::Rng& rng) const {
  // Every syscall, including futexes, pays interception + Sentry handling.
  return sentry_.interception_cost(rng) +
         DurationDist::lognormal(sim::nanos(900), 0.25).sample(rng);
}

void GvisorPlatform::record_phase(WorkloadClass w, sim::Rng& rng) {
  auto& k = kernel();
  // Finding 26: the user-space kernel does not reduce host calls as much
  // as expected — the Sentry constantly uses futex/epoll/timers, and every
  // intercepted syscall bounces through ptrace or KVM.
  const std::uint64_t intercepts = w == WorkloadClass::kCpu ? 16 : 200;
  for (std::uint64_t i = 0; i < intercepts / 8; ++i) {
    sentry_.serve_internal(rng);
  }
  k.record(Syscall::kFutexWait, rng, 48);
  k.record(Syscall::kFutexWake, rng, 48);
  k.record(Syscall::kEpollWait, rng, 32);
  k.record(Syscall::kClockGettime, rng, 64);
  k.record(Syscall::kNanosleep, rng, 8);
  k.record(Syscall::kSchedYield, rng, 8);
  k.record(Syscall::kMmap, rng, 8);      // Go runtime arena growth
  k.record(Syscall::kMunmap, rng, 4);
  k.record(Syscall::kMadvise, rng, 12);  // heap release
  k.record(Syscall::kTgkill, rng, 4);    // goroutine preemption signals
  k.record(Syscall::kRtSigreturn, rng, 4);
  k.record(Syscall::kEventfd2, rng, 1);
  k.record(Syscall::kPipe2, rng, 1);
  // Gofer-side host VFS work beyond plain reads.
  k.record(Syscall::kFstat, rng, 4);
  k.record(Syscall::kStatx, rng, 2);
  k.record(Syscall::kGetdents64, rng, 2);
  k.record(Syscall::kLseek, rng, 2);
  k.record(Syscall::kFsync, rng, 1);
  k.record(Syscall::kFallocate, rng, 1);
  k.record(Syscall::kPread64, rng, 8);
  k.record(Syscall::kPwrite64, rng, 8);
  k.record(Syscall::kClose, rng, 4);
  k.record(Syscall::kProcRead, rng, 2);
  k.record(Syscall::kWait4, rng, 2);     // ptrace tracee management
  k.record(Syscall::kKill, rng, 1);
  k.record(Syscall::kClone3, rng, 1);    // Sentry task threads
  k.record(Syscall::kExecve, rng, 1);    // runsc exec entry
  k.record(Syscall::kBind, rng, 1);      // control server socket
  k.record(Syscall::kListen, rng, 1);
  switch (w) {
    case WorkloadClass::kIo:
      for (int i = 0; i < 12; ++i) {
        sentry_.serve_via_gofer(128 << 10, rng);
        gofer_.handle_request(128 << 10, rng);
      }
      break;
    case WorkloadClass::kNetwork:
      net().record_traffic(32ull << 20, host().nic(), rng);
      k.record(Syscall::kIoctlTun, rng, 8);  // Netstack's TAP endpoint
      k.record(Syscall::kSetsockopt, rng, 2);
      break;
    case WorkloadClass::kMemory:
      k.record(Syscall::kMprotect, rng, 8);
      k.record(Syscall::kBrk, rng, 2);
      break;
    default:
      break;
  }
}

}  // namespace platforms
