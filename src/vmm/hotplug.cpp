#include "vmm/hotplug.h"

namespace vmm {

using hostk::Syscall;
using sim::DurationDist;
using sim::micros;
using sim::millis;

HotplugController::HotplugController(Vm& vm, hostk::HostKernel& host,
                                     std::uint64_t host_ram_bytes)
    : vm_(&vm),
      host_(&host),
      host_ram_(host_ram_bytes),
      guest_ram_(vm.spec().guest_ram_bytes),
      online_vcpus_(vm.spec().vcpus) {}

HotplugStatus HotplugController::hotplug_memory(std::uint64_t bytes,
                                                sim::Clock& clock,
                                                sim::Rng& rng) {
  if (!vm_->spec().devices.supports_memory_hotplug()) {
    return HotplugStatus::kUnsupported;
  }
  if (bytes == 0 || bytes % kMemoryGranularity != 0) {
    return HotplugStatus::kBadGranularity;
  }
  if (guest_ram_ + bytes > host_ram_) {
    return HotplugStatus::kExceedsHostRam;
  }
  // API request to the VMM, host-side allocation, then mapping the new
  // region into the guest's physical address space.
  host_->invoke_on(clock, Syscall::kSendmsg, rng, 1);  // REST API call
  host_->invoke_on(clock, Syscall::kMmap, rng, bytes / kMemoryGranularity);
  host_->invoke_on(clock, Syscall::kKvmSetUserMemoryRegion, rng,
                   bytes / kMemoryGranularity);
  // Guest-side ACPI notification + memory-block onlining.
  clock.advance(DurationDist::lognormal(millis(14), 0.2).sample(rng));
  guest_ram_ += bytes;
  return HotplugStatus::kOk;
}

HotplugStatus HotplugController::hotplug_vcpu(sim::Clock& clock,
                                              sim::Rng& rng) {
  if (!vm_->spec().devices.supports_vcpu_hotplug()) {
    return HotplugStatus::kUnsupported;
  }
  host_->invoke_on(clock, Syscall::kSendmsg, rng, 1);       // API call
  host_->invoke_on(clock, Syscall::kKvmCreateVcpu, rng, 1); // CREATE_VCPU
  // ACPI advertisement to the running guest kernel.
  host_->invoke_on(clock, Syscall::kKvmIrqLine, rng, 1);
  clock.advance(DurationDist::lognormal(millis(3.5), 0.2).sample(rng));
  ++standby_vcpus_;
  return HotplugStatus::kOk;
}

HotplugStatus HotplugController::online_vcpu(sim::Clock& clock, sim::Rng& rng) {
  if (standby_vcpus_ == 0) {
    return HotplugStatus::kNoStandbyVcpu;
  }
  // "The newly provisioned vCPUs ... have to be brought online by manual
  // interaction with the guest Linux kernel sysfs interface."
  host_->invoke_on(clock, Syscall::kKvmRun, rng, 4);  // guest executes write
  clock.advance(DurationDist::lognormal(micros(850), 0.2).sample(rng));
  --standby_vcpus_;
  ++online_vcpus_;
  return HotplugStatus::kOk;
}

}  // namespace vmm
