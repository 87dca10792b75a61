// Hypervisor device models.
//
// Section 2.1 contrasts the device models of the three hypervisors: QEMU
// emulates 40+ devices, Cloud Hypervisor supports 16, Firecracker only 7.
// Device-model size costs VMM initialization time at boot.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/boot.h"
#include "sim/distribution.h"

namespace vmm {

enum class DeviceKind {
  kVirtio,     // paravirtualized virtio device
  kVhostUser,  // device backend in a separate userspace process
  kLegacy,     // emulated legacy hardware (i8042, serial, RTC...)
  kPlatform,   // ACPI, IOAPIC, PCI host bridge and friends
};

struct Device {
  std::string name;
  DeviceKind kind;
  sim::Nanos init_cost_mean;  // contribution to VMM startup
};

/// The set of devices a hypervisor wires into a guest.
class DeviceModel {
 public:
  DeviceModel() = default;
  explicit DeviceModel(std::vector<Device> devices);

  std::size_t device_count() const { return devices_.size(); }
  std::size_t count_of_kind(DeviceKind kind) const;

  /// Boot stages: realize/init every device.
  core::BootTimeline boot_timeline() const;

 private:
  std::vector<Device> devices_;
};

/// Device-model catalog matching Section 2.1.
class DeviceModelCatalog {
 public:
  static DeviceModel qemu_full();        // 40+ devices
  static DeviceModel qemu_microvm();     // the uVM machine model
  static DeviceModel firecracker();      // exactly 7 devices
  static DeviceModel cloud_hypervisor(); // 16 devices, mostly virtio
  static DeviceModel kata_guest();       // stripped QEMU for Kata guests
};

}  // namespace vmm
