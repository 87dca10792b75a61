// Hypervisor platforms: QEMU/KVM, Firecracker, Cloud Hypervisor (§2.1).
#pragma once

#include "platforms/platform.h"
#include "vmm/vm.h"

namespace platforms {

/// Which VMM flavor a HypervisorPlatform models; decides the breadth of
/// host-kernel activity its event loop generates (the HAP differences of
/// Findings 24 & 25).
enum class VmmFlavor { kQemu, kFirecracker, kCloudHypervisor };

/// A full-system VM platform: guest Linux on a VMM on KVM.
class HypervisorPlatform : public Platform {
 public:
  HypervisorPlatform(PlatformId id, std::string name, core::HostSystem& host,
                     vmm::VmmSpec vmm_spec, VmmFlavor flavor);

  static std::unique_ptr<HypervisorPlatform> qemu(core::HostSystem& host);
  static std::unique_ptr<HypervisorPlatform> firecracker(core::HostSystem& host);
  static std::unique_ptr<HypervisorPlatform> cloud_hypervisor(
      core::HostSystem& host);

  /// Guest syscalls are served by the guest kernel; only a fraction exits
  /// to the host. Synchronization stays fully in-guest.
  sim::Nanos sync_syscall_cost(sim::Rng& rng) const override;

 protected:
  core::BootTimeline compose_boot_timeline() const override;
  void record_boot_trace(sim::Rng& rng) override;
  void record_phase(WorkloadClass w, sim::Rng& rng) override;

 private:
  vmm::Vm vm_;
  VmmFlavor flavor_;
};

}  // namespace platforms
