// Guest boot protocol and kernel models.
//
// Section 2.1.2 explains why boot paths differ: Firecracker loads an
// *uncompressed* kernel and enters it directly in 64-bit long mode;
// QEMU runs SeaBIOS (or the minimal qboot) and a compressed bzImage that
// decompresses itself; the microvm machine model skips the BIOS but, as
// Figure 14 shows, ends up slowest in practice for Linux guests.
#pragma once

#include <cstdint>
#include <string>

#include "core/boot.h"

namespace vmm {

enum class BootProtocol {
  kBios,           // SeaBIOS: full 16->32->64 bit mode dance
  kQboot,          // minimal BIOS replacement
  kLinux64Direct,  // Firecracker/Cloud Hypervisor: enter at the 64-bit entry
  kMicroVm,        // QEMU uVM machine model (direct-ish but quirky)
};

/// Firmware/pre-kernel boot stages for a protocol.
core::BootTimeline boot_protocol_timeline(BootProtocol p);

/// The guest kernel image to boot.
struct GuestKernel {
  std::string name;
  std::uint64_t image_bytes;
  bool compressed;       // bzImage decompresses itself at entry
  double feature_scale;  // 1.0 = distro generic; <1 = stripped (Kata, OSv)
};

/// Kernel catalog used across the experiments.
class GuestKernelCatalog {
 public:
  static GuestKernel ubuntu_generic();  // distro kernel, bzImage
  static GuestKernel uncompressed_vmlinux();  // what Firecracker boots
  static GuestKernel kata_stripped();   // kconfig-minimized Kata kernel
  static GuestKernel osv_kernel();      // the tiny OSv unikernel image
};

/// Stages to load and initialize a guest kernel through a given protocol.
/// `loader_bw_bytes_per_sec` is how fast the VMM copies the image into
/// guest memory (Firecracker's uncompressed vmlinux makes this dominate).
core::BootTimeline guest_kernel_timeline(const GuestKernel& kernel,
                                         BootProtocol protocol,
                                         double loader_bw_bytes_per_sec = 2.1e8);

}  // namespace vmm
