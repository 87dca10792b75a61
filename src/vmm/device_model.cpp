#include "vmm/device_model.h"

#include <algorithm>

namespace vmm {

using sim::micros;
using sim::millis;

DeviceModel::DeviceModel(std::vector<Device> devices)
    : devices_(std::move(devices)) {}

std::size_t DeviceModel::count_of_kind(DeviceKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(devices_.begin(), devices_.end(),
                    [kind](const Device& d) { return d.kind == kind; }));
}

core::BootTimeline DeviceModel::boot_timeline() const {
  core::BootTimeline t;
  for (const auto& d : devices_) {
    t.stage("device:" + d.name,
            sim::DurationDist::lognormal(std::max<sim::Nanos>(d.init_cost_mean, 1),
                                         0.25));
  }
  return t;
}

namespace {
Device virtio(const std::string& name, sim::Nanos cost = micros(350)) {
  return Device{name, DeviceKind::kVirtio, cost};
}
Device legacy(const std::string& name, sim::Nanos cost = micros(600)) {
  return Device{name, DeviceKind::kLegacy, cost};
}
Device platform_dev(const std::string& name, sim::Nanos cost = micros(800)) {
  return Device{name, DeviceKind::kPlatform, cost};
}
}  // namespace

DeviceModel DeviceModelCatalog::qemu_full() {
  // Emulated catalog of a stock qemu-system-x86_64 -M q35 guest.
  std::vector<Device> devs = {
      platform_dev("q35-host-bridge"), platform_dev("acpi"),
      platform_dev("ioapic"), platform_dev("pic"), platform_dev("pit"),
      platform_dev("hpet"), platform_dev("pci-bus"), platform_dev("pcie-root"),
      legacy("i8042"), legacy("rtc-cmos"), legacy("serial-16550a"),
      legacy("parallel-port"), legacy("floppy-fdc"), legacy("ide-controller"),
      legacy("sata-ahci"), legacy("usb-uhci"), legacy("usb-ehci"),
      legacy("usb-tablet"), legacy("ps2-keyboard"), legacy("ps2-mouse"),
      legacy("vga-std"), legacy("audio-alsa"), legacy("ne2k-legacy-nic"),
      legacy("e1000"), legacy("cdrom"), legacy("smbus"), legacy("tpm-tis"),
      virtio("virtio-net"), virtio("virtio-blk"), virtio("virtio-scsi"),
      virtio("virtio-serial"), virtio("virtio-rng"), virtio("virtio-balloon"),
      virtio("virtio-9p"), virtio("virtio-gpu"), virtio("virtio-vsock"),
      virtio("virtio-fs"), virtio("nvdimm", micros(500)),
      legacy("pvpanic"), legacy("debugcon"), legacy("fw-cfg"),
      legacy("qemu-monitor")};
  return DeviceModel(std::move(devs));
}

DeviceModel DeviceModelCatalog::qemu_microvm() {
  // The uVM machine model: virtio-mmio devices, no PCI, minimal legacy.
  std::vector<Device> devs = {
      platform_dev("microvm-board", micros(700)),
      legacy("i8042"), legacy("serial-16550a"),
      virtio("virtio-net"), virtio("virtio-blk"), virtio("virtio-rng"),
      virtio("virtio-serial"), virtio("virtio-vsock"), legacy("fw-cfg"),
      legacy("rtc-cmos")};
  return DeviceModel(std::move(devs));
}

DeviceModel DeviceModelCatalog::firecracker() {
  // Section 2.1.2: virtio-net, virtio-blk, virtio-vsock, a legacy i8042
  // serial console, PS/2 keyboard controller, and a pseudo boot-clock.
  std::vector<Device> devs = {
      virtio("virtio-net", micros(220)),
      virtio("virtio-blk", micros(220)),
      virtio("virtio-vsock", micros(200)),
      legacy("i8042", micros(150)),
      legacy("serial-console", micros(140)),
      legacy("ps2-keyboard", micros(120)),
      legacy("pseudo-boot-clock", micros(60))};
  return DeviceModel(std::move(devs));
}

DeviceModel DeviceModelCatalog::cloud_hypervisor() {
  // Section 2.1.3: 16 devices, mostly virtio, plus vhost-user.
  std::vector<Device> devs = {
      platform_dev("acpi", micros(500)),
      platform_dev("pci-bus", micros(450)),
      platform_dev("ioapic", micros(300)),
      legacy("serial-console", micros(150)),
      legacy("i8042", micros(140)),
      legacy("rtc-cmos", micros(120)),
      virtio("virtio-net", micros(230)),
      virtio("virtio-blk", micros(230)),
      virtio("virtio-vsock", micros(200)),
      virtio("virtio-rng", micros(160)),
      virtio("virtio-console", micros(170)),
      virtio("virtio-pmem", micros(200)),
      virtio("virtio-mem", micros(220)),
      virtio("virtio-iommu", micros(260)),
      Device{"vhost-user-net", DeviceKind::kVhostUser, micros(320)},
      Device{"vhost-user-blk", DeviceKind::kVhostUser, micros(320)}};
  return DeviceModel(std::move(devs));
}

DeviceModel DeviceModelCatalog::kata_guest() {
  // QEMU launched by kata-runtime with a stripped machine type.
  std::vector<Device> devs = {
      platform_dev("q35-host-bridge", micros(600)),
      platform_dev("acpi", micros(500)),
      legacy("serial-16550a", micros(180)),
      virtio("virtio-net"), virtio("virtio-blk"), virtio("virtio-9p"),
      virtio("virtio-fs"), virtio("virtio-vsock"),
      virtio("nvdimm", micros(500))};
  return DeviceModel(std::move(devs));
}

}  // namespace vmm
