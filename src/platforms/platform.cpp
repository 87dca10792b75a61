#include "platforms/platform.h"

namespace platforms {

std::string platform_id_name(PlatformId id) {
  switch (id) {
    case PlatformId::kNative:
      return "native";
    case PlatformId::kDocker:
      return "docker";
    case PlatformId::kLxc:
      return "lxc";
    case PlatformId::kQemuKvm:
      return "qemu-kvm";
    case PlatformId::kFirecracker:
      return "firecracker";
    case PlatformId::kCloudHypervisor:
      return "cloud-hypervisor";
    case PlatformId::kKataContainers:
      return "kata-containers";
    case PlatformId::kGvisor:
      return "gvisor";
    case PlatformId::kOsvQemu:
      return "osv";
    case PlatformId::kOsvFirecracker:
      return "osv-fc";
  }
  return "unknown";
}

Platform::Platform(PlatformId id, std::string name, core::HostSystem& host)
    : id_(id), name_(std::move(name)), host_(&host) {}

void Platform::set_net(net::NetPathSpec spec) {
  net_ = std::make_unique<net::NetPath>(std::move(spec), host_->kernel());
}

void Platform::set_block(storage::BlockPathSpec spec) {
  block_ = std::make_unique<storage::BlockPath>(
      std::move(spec), host_->kernel(), host_->nvme(), host_->page_cache());
}

const core::BootTimeline& Platform::boot_timeline() const {
  if (timeline_.empty()) {
    timeline_ = compose_boot_timeline();
  }
  return timeline_;
}

core::BootResult Platform::boot(sim::Clock& clock, sim::Rng& rng) {
  record_boot_trace(rng);
  const core::BootResult result = boot_timeline().run(rng);
  clock.advance(result.total);
  return result;
}

sim::Nanos Platform::boot_total(sim::Clock& clock, sim::Rng& rng) {
  record_boot_trace(rng);
  const sim::Nanos total = boot_timeline().sample_total(rng);
  clock.advance(total);
  return total;
}

void Platform::record_workload(WorkloadClass w, sim::Rng& rng) {
  if (w == WorkloadClass::kStartup) {
    record_boot_trace(rng);
  } else {
    record_phase(w, rng);
  }
}

sim::Nanos Platform::sync_syscall_cost(sim::Rng& rng) const {
  // Default: a direct host futex wake (native, containers).
  return host_->kernel().invoke(hostk::Syscall::kFutexWake, rng, 1);
}

}  // namespace platforms
