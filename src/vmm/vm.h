// Virtual machine assembly: VMM process + KVM + devices + guest kernel.
//
// A Vm combines the architectural ingredients of Section 2.1 into a
// bootable unit: it produces the full boot timeline for the startup
// experiments (Figure 14/15) and performs the KVM setup syscalls against
// the host kernel so the HAP study sees each hypervisor's host footprint.
#pragma once

#include <cstdint>
#include <string>

#include "container/init_system.h"
#include "core/boot.h"
#include "hostk/host_kernel.h"
#include "vmm/device_model.h"
#include "vmm/guest_boot.h"
#include "vmm/vm_memory.h"

namespace vmm {

/// Declarative description of a VMM configuration.
struct VmmSpec {
  std::string name;
  sim::DurationDist process_spawn = sim::DurationDist::constant(0);
  sim::DurationDist vmm_init = sim::DurationDist::constant(0);
  /// REST/socket configuration phase (Firecracker & Cloud Hypervisor are
  /// API-driven; QEMU takes a command line and has no such phase).
  sim::DurationDist api_setup = sim::DurationDist::constant(0);
  DeviceModel devices;
  BootProtocol protocol = BootProtocol::kBios;
  GuestKernel kernel = GuestKernelCatalog::ubuntu_generic();
  container::InitKind init = container::InitKind::kPatchedExit;
  MemoryBacking memory = MemoryBackingCatalog::qemu_mmap();
  int vcpus = 16;
  std::uint64_t guest_ram_bytes = 4ull << 30;
  /// Image-copy bandwidth of the kernel loader.
  double loader_bw_bytes_per_sec = 2.1e8;
};

/// VMM spec catalog matching the paper's hypervisor configurations.
class VmmCatalog {
 public:
  static VmmSpec qemu_kvm();
  static VmmSpec qemu_qboot();
  static VmmSpec qemu_microvm();
  static VmmSpec firecracker();
  static VmmSpec cloud_hypervisor();
  static VmmSpec kata_vm();  // the QEMU instance kata-runtime launches

  /// OSv guest variants (Figure 15).
  static VmmSpec osv_on_qemu();
  static VmmSpec osv_on_qemu_microvm();
  static VmmSpec osv_on_firecracker();
};

/// A bootable VM instance bound to a host kernel.
class Vm {
 public:
  Vm(VmmSpec spec, hostk::HostKernel& host);

  /// The complete boot timeline: process creation through init completion
  /// and process termination (the paper's end-to-end convention).
  /// Composed on the first call and kept (the spec is fixed once the Vm
  /// is constructed).
  const core::BootTimeline& boot_timeline() const;

  /// One boot as the host sees it: the KVM setup syscalls (visible to
  /// ftrace), then one sample of the boot's duration, which no caller
  /// reads.
  void record_boot(sim::Rng& rng);

  /// Memory profile the guest observes (Figures 6-8 inputs).
  const mem::MemoryProfile& memory_profile() const {
    return spec_.memory.profile;
  }

  /// Record the host-side activity of `vm_exits` guest exits plus the
  /// VMM event loop over a steady-state window (HAP instrumentation).
  void record_steady_state(std::uint64_t vm_exits, sim::Rng& rng);

 private:
  VmmSpec spec_;
  hostk::HostKernel* host_;
  mutable core::BootTimeline timeline_;  // empty until first composed
};

}  // namespace vmm
