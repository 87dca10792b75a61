#include "platforms/native_platform.h"

#include "net/net_path.h"
#include "storage/block_path.h"
#include "vmm/vm_memory.h"

namespace platforms {

using hostk::Syscall;
using sim::DurationDist;
using sim::millis;

NativePlatform::NativePlatform(core::HostSystem& host)
    : Platform(PlatformId::kNative, "native", host) {
  set_memory_profile(vmm::MemoryBackingCatalog::host_native().profile);
  set_net(net::NetPathCatalog::native());
  set_block(storage::BlockPathCatalog::native());
}

core::BootTimeline NativePlatform::compose_boot_timeline() const {
  core::BootTimeline t;
  t.stage("native:fork-exec", DurationDist::lognormal(millis(2.1), 0.2));
  t.stage("native:exit", DurationDist::lognormal(millis(0.9), 0.25));
  return t;
}

void NativePlatform::record_boot_trace(sim::Rng& rng) {
  kernel().invoke(Syscall::kClone, rng, 1);
  kernel().invoke(Syscall::kExecve, rng, 1);
  kernel().invoke(Syscall::kExitGroup, rng, 1);
  kernel().invoke(Syscall::kWait4, rng, 1);
}

void NativePlatform::record_phase(WorkloadClass w, sim::Rng& rng) {
  auto& k = kernel();
  switch (w) {
    case WorkloadClass::kCpu:
      // A compute loop barely touches the kernel: timer ticks and the
      // occasional yield.
      k.invoke(Syscall::kClockGettime, rng, 32);
      k.invoke(Syscall::kSchedYield, rng, 4);
      k.invoke(Syscall::kFutexWait, rng, 2);
      k.invoke(Syscall::kFutexWake, rng, 2);
      break;
    case WorkloadClass::kMemory:
      k.invoke(Syscall::kMmap, rng, 16);
      k.invoke(Syscall::kMadvise, rng, 8);
      k.invoke(Syscall::kBrk, rng, 4);
      k.invoke(Syscall::kMunmap, rng, 16);
      k.invoke(Syscall::kMprotect, rng, 4);
      break;
    case WorkloadClass::kIo:
      k.invoke(Syscall::kOpenat, rng, 4);
      k.invoke(Syscall::kFallocate, rng, 1);
      k.invoke(Syscall::kIoSubmit, rng, 64);
      k.invoke(Syscall::kIoGetevents, rng, 64);
      k.invoke(Syscall::kFsync, rng, 2);
      k.invoke(Syscall::kClose, rng, 4);
      k.invoke(Syscall::kFstat, rng, 4);
      break;
    case WorkloadClass::kNetwork:
      net().record_traffic(32ull << 20, host().nic(), rng);
      k.invoke(Syscall::kSocket, rng, 1);
      k.invoke(Syscall::kConnect, rng, 1);
      k.invoke(Syscall::kSetsockopt, rng, 2);
      k.invoke(Syscall::kEpollWait, rng, 16);
      break;
    case WorkloadClass::kStartup:
      break;  // Platform::record_workload records a boot trace instead
  }
}

}  // namespace platforms
