#include "vmm/guest_boot.h"

#include <algorithm>

namespace vmm {

using sim::DurationDist;
using sim::millis;

core::BootTimeline boot_protocol_timeline(BootProtocol p) {
  core::BootTimeline t;
  switch (p) {
    case BootProtocol::kBios:
      t.stage("fw:seabios-post", DurationDist::lognormal(millis(40), 0.12));
      t.stage("fw:option-roms", DurationDist::lognormal(millis(10), 0.20));
      t.stage("fw:mode-switches", DurationDist::lognormal(millis(5), 0.15));
      break;
    case BootProtocol::kQboot:
      t.stage("fw:qboot", DurationDist::lognormal(millis(11), 0.15));
      t.stage("fw:mode-switches", DurationDist::lognormal(millis(6), 0.15));
      break;
    case BootProtocol::kLinux64Direct:
      // 64-bit boot protocol: no firmware, no mode-by-mode dance.
      t.stage("fw:direct-64bit-entry", DurationDist::lognormal(millis(0.6), 0.2));
      break;
    case BootProtocol::kMicroVm:
      // No BIOS, but synchronous fw-cfg DMA setup is not free; the real
      // cost of this machine model shows up in the guest's device probe
      // (see guest_kernel_timeline) — Figure 14's unexpected result.
      t.stage("fw:microvm-fwcfg", DurationDist::lognormal(millis(34), 0.18));
      t.stage("fw:virtio-mmio-setup", DurationDist::lognormal(millis(25), 0.15));
      break;
  }
  return t;
}

GuestKernel GuestKernelCatalog::ubuntu_generic() {
  return {.name = "ubuntu-5.4-bzImage",
          .image_bytes = 11ull << 20,
          .compressed = true,
          .feature_scale = 1.0};
}

GuestKernel GuestKernelCatalog::uncompressed_vmlinux() {
  return {.name = "vmlinux-5.4-uncompressed",
          .image_bytes = 46ull << 20,
          .compressed = false,
          .feature_scale = 1.0};
}

GuestKernel GuestKernelCatalog::kata_stripped() {
  return {.name = "kata-kernel-minimal",
          .image_bytes = 6ull << 20,
          .compressed = true,
          .feature_scale = 0.34};
}

GuestKernel GuestKernelCatalog::osv_kernel() {
  return {.name = "osv-unikernel",
          .image_bytes = 7ull << 20,
          .compressed = false,
          .feature_scale = 0.12};
}

core::BootTimeline guest_kernel_timeline(const GuestKernel& kernel,
                                         BootProtocol protocol,
                                         double loader_bw_bytes_per_sec) {
  core::BootTimeline t;
  // Image load: the VMM copies the image into guest memory. Uncompressed
  // vmlinux images are ~4x larger than bzImage, which is what makes
  // Firecracker's Linux end-to-end boot slow (Finding 14 / Conclusion 5).
  const double load_s =
      static_cast<double>(kernel.image_bytes) / loader_bw_bytes_per_sec;
  t.stage("kernel:load-image",
          DurationDist::lognormal(std::max<sim::Nanos>(sim::seconds(load_s), 1),
                                  0.10));
  if (kernel.compressed) {
    t.stage("kernel:self-decompress", DurationDist::lognormal(millis(30), 0.12));
  }
  // Hardware probing + subsystem init scales with the configured feature
  // surface (Kata's kconfig-minimized kernel boots much faster).
  const double init_ms = 55.0 * kernel.feature_scale;
  t.stage("kernel:init",
          DurationDist::lognormal(millis(std::max(init_ms, 1.0)), 0.10));
  if (protocol == BootProtocol::kBios || protocol == BootProtocol::kQboot) {
    t.stage("kernel:pci-probe", DurationDist::lognormal(millis(16), 0.15));
  } else if (protocol == BootProtocol::kMicroVm) {
    // Figure 14's surprise: on this QEMU version the guest's virtio-mmio
    // discovery takes a slow legacy path that scales with the kernel's
    // configured driver surface — full Linux pays dearly, OSv barely.
    t.stage("kernel:virtio-mmio-probe",
            DurationDist::lognormal(
                millis(std::max(160.0 * kernel.feature_scale, 1.0)), 0.12));
  }
  return t;
}

}  // namespace vmm
