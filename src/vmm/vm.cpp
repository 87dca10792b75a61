#include "vmm/vm.h"

namespace vmm {

using container::InitKind;
using hostk::Syscall;
using sim::DurationDist;
using sim::millis;

Vm::Vm(VmmSpec spec, hostk::HostKernel& host)
    : spec_(std::move(spec)), host_(&host) {}

const core::BootTimeline& Vm::boot_timeline() const {
  if (!timeline_.empty()) {
    return timeline_;
  }
  core::BootTimeline t;
  t.stage("vmm:process-spawn", spec_.process_spawn);
  t.stage("vmm:api-setup", spec_.api_setup);
  t.stage("vmm:init", spec_.vmm_init);
  // KVM VM + vCPU fds + memory-region registration.
  t.stage("vmm:kvm-setup", DurationDist::lognormal(millis(3.5), 0.2));
  t.append(spec_.devices.boot_timeline());
  t.append(boot_protocol_timeline(spec_.protocol));
  t.append(guest_kernel_timeline(spec_.kernel, spec_.protocol,
                                 spec_.loader_bw_bytes_per_sec));
  t.append(container::init_system_timeline(spec_.init));
  t.stage("vmm:teardown", container::init_system_shutdown(spec_.init));
  timeline_ = std::move(t);
  return timeline_;
}

void Vm::record_boot(sim::Rng& rng) {
  // Host-visible setup syscalls (trace-relevant; their CPU time is part of
  // the sampled stage durations).
  host_->record(Syscall::kKvmCreateVm, rng);
  host_->record(Syscall::kKvmCreateVcpu, rng,
                static_cast<std::uint64_t>(spec_.vcpus));
  // One memory slot per GiB of guest RAM (coarse but realistic).
  host_->record(Syscall::kKvmSetUserMemoryRegion, rng,
                std::max<std::uint64_t>(1, spec_.guest_ram_bytes >> 30));
  host_->record(Syscall::kMmap, rng,
                std::max<std::uint64_t>(1, spec_.guest_ram_bytes >> 30));
  host_->record(Syscall::kEventfd2, rng, spec_.devices.device_count());
  host_->record(Syscall::kKvmIoeventfd, rng, spec_.devices.device_count());
  host_->record(Syscall::kEpollCtl, rng, spec_.devices.device_count());
  host_->record(Syscall::kKvmSetRegs, rng,
                static_cast<std::uint64_t>(spec_.vcpus));
  // The boot itself: guest runs via KVM_RUN until init completes.
  host_->record(Syscall::kKvmRun, rng, 64);
  // No duration is needed, but skipping the boot's draws keeps the
  // tenant's RNG stream where a full boot leaves it.
  boot_timeline().skip_total(rng);
}

void Vm::record_steady_state(std::uint64_t vm_exits, sim::Rng& rng) {
  if (!host_->ftrace().recording()) {
    return;
  }
  // Each guest exit re-enters through ioctl(KVM_RUN); the VMM event loop
  // polls its registered fds and timers (Section 2.1.1's main_loop_wait).
  host_->record(Syscall::kKvmRun, rng, vm_exits);
  host_->record(Syscall::kEpollWait, rng, std::max<std::uint64_t>(1, vm_exits / 8));
  host_->record(Syscall::kClockGettime, rng,
                std::max<std::uint64_t>(1, vm_exits / 4));
  host_->record(Syscall::kKvmIrqLine, rng, std::max<std::uint64_t>(1, vm_exits / 3));
}

// --- Catalog -----------------------------------------------------------

VmmSpec VmmCatalog::qemu_kvm() {
  return {.name = "qemu-kvm",
          .process_spawn = DurationDist::lognormal(millis(3.0), 0.2),
          .vmm_init = DurationDist::lognormal(millis(24), 0.12),
          .api_setup = DurationDist::constant(0),
          .devices = DeviceModelCatalog::qemu_full(),
          .protocol = BootProtocol::kBios,
          .kernel = GuestKernelCatalog::ubuntu_generic(),
          .init = container::InitKind::kPatchedExit,
          .memory = MemoryBackingCatalog::qemu_mmap()};
}

VmmSpec VmmCatalog::qemu_qboot() {
  VmmSpec s = qemu_kvm();
  s.name = "qemu-qboot";
  s.protocol = BootProtocol::kQboot;
  return s;
}

VmmSpec VmmCatalog::qemu_microvm() {
  VmmSpec s = qemu_kvm();
  s.name = "qemu-microvm";
  s.vmm_init = DurationDist::lognormal(millis(22), 0.12);
  s.devices = DeviceModelCatalog::qemu_microvm();
  s.protocol = BootProtocol::kMicroVm;
  return s;
}

VmmSpec VmmCatalog::firecracker() {
  return {.name = "firecracker",
          .process_spawn = DurationDist::lognormal(millis(1.4), 0.2),
          .vmm_init = DurationDist::lognormal(millis(6), 0.15),
          .api_setup = DurationDist::lognormal(millis(9), 0.15),
          .devices = DeviceModelCatalog::firecracker(),
          .protocol = BootProtocol::kLinux64Direct,
          // Firecracker boots an *uncompressed* vmlinux: copying the much
          // larger image dominates its end-to-end time (Conclusion 5).
          .kernel = GuestKernelCatalog::uncompressed_vmlinux(),
          .init = container::InitKind::kPatchedExit,
          .memory = MemoryBackingCatalog::vm_memory_crate_firecracker(),
          // Copying the uncompressed image into guest memory is the slow
          // part of Firecracker's end-to-end boot.
          .loader_bw_bytes_per_sec = 1.75e8};
}

VmmSpec VmmCatalog::cloud_hypervisor() {
  return {.name = "cloud-hypervisor",
          .process_spawn = DurationDist::lognormal(millis(1.5), 0.2),
          .vmm_init = DurationDist::lognormal(millis(8), 0.15),
          .api_setup = DurationDist::lognormal(millis(7), 0.15),
          .devices = DeviceModelCatalog::cloud_hypervisor(),
          .protocol = BootProtocol::kLinux64Direct,
          .kernel = GuestKernelCatalog::ubuntu_generic(),
          .init = container::InitKind::kPatchedExit,
          .memory = MemoryBackingCatalog::vm_memory_crate_cloud_hypervisor(),
          // CH keeps a compressed image and expands it in the VMM at
          // memcpy-like speeds.
          .loader_bw_bytes_per_sec = 5.0e8};
}

VmmSpec VmmCatalog::kata_vm() {
  return {.name = "kata-vm",
          .process_spawn = DurationDist::lognormal(millis(2.6), 0.2),
          .vmm_init = DurationDist::lognormal(millis(40), 0.12),
          .api_setup = DurationDist::constant(0),
          .devices = DeviceModelCatalog::kata_guest(),
          .protocol = BootProtocol::kQboot,
          .kernel = GuestKernelCatalog::kata_stripped(),
          .init = container::InitKind::kSystemdMini,
          .memory = MemoryBackingCatalog::kata_nvdimm_direct()};
}

VmmSpec VmmCatalog::osv_on_qemu() {
  VmmSpec s = qemu_kvm();
  s.name = "osv-qemu";
  s.kernel = GuestKernelCatalog::osv_kernel();
  s.init = container::InitKind::kPatchedExit;
  s.memory = MemoryBackingCatalog::osv_on_qemu();
  return s;
}

VmmSpec VmmCatalog::osv_on_qemu_microvm() {
  VmmSpec s = qemu_microvm();
  s.name = "osv-qemu-microvm";
  s.kernel = GuestKernelCatalog::osv_kernel();
  s.memory = MemoryBackingCatalog::osv_on_qemu();
  return s;
}

VmmSpec VmmCatalog::osv_on_firecracker() {
  VmmSpec s = firecracker();
  s.name = "osv-firecracker";
  s.kernel = GuestKernelCatalog::osv_kernel();
  s.memory = MemoryBackingCatalog::osv_on_firecracker();
  return s;
}

}  // namespace vmm
