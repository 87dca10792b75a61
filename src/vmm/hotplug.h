// Memory and vCPU hotplug (Section 2.1.3 — Cloud Hypervisor).
//
// The paper describes the mechanics precisely: memory is hotplugged by
// first allocating it on the host (in multiples of 128 MiB) and then
// mapping it from the hypervisor's userspace process into the guest;
// extra vCPUs are created with a CREATE_VCPU ioctl and advertised via
// ACPI, but stay offline until someone pokes the guest kernel's sysfs.
// This module implements that lifecycle against a Vm.
#pragma once

#include <cstdint>
#include <string>

#include "sim/clock.h"
#include "vmm/vm.h"

namespace vmm {

enum class HotplugStatus {
  kOk,
  kUnsupported,       // the device model has no hotplug capability
  kBadGranularity,    // memory not a multiple of 128 MiB
  kExceedsHostRam,    // host cannot back the allocation
  kNoStandbyVcpu,     // online requested but nothing was hotplugged
};

/// Drives hotplug requests through a VMM's API against one Vm.
class HotplugController {
 public:
  static constexpr std::uint64_t kMemoryGranularity = 128ull << 20;

  HotplugController(Vm& vm, hostk::HostKernel& host,
                    std::uint64_t host_ram_bytes);

  /// Hotplug guest memory. Charges host allocation + mapping time and
  /// records the KVM memory-region syscalls.
  HotplugStatus hotplug_memory(std::uint64_t bytes, sim::Clock& clock,
                               sim::Rng& rng);

  /// Create and advertise one extra vCPU (it starts in standby).
  HotplugStatus hotplug_vcpu(sim::Clock& clock, sim::Rng& rng);

  /// Bring one standby vCPU online by writing the guest's sysfs knob —
  /// the manual step the paper points out.
  HotplugStatus online_vcpu(sim::Clock& clock, sim::Rng& rng);

  std::uint64_t guest_ram_bytes() const { return guest_ram_; }
  int online_vcpus() const { return online_vcpus_; }
  int standby_vcpus() const { return standby_vcpus_; }

 private:
  Vm* vm_;
  hostk::HostKernel* host_;
  std::uint64_t host_ram_;
  std::uint64_t guest_ram_;
  int online_vcpus_;
  int standby_vcpus_ = 0;
};

}  // namespace vmm
