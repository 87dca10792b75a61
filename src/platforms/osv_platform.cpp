#include "platforms/osv_platform.h"

#include "net/net_path.h"
#include "sim/distribution.h"
#include "storage/block_path.h"

namespace platforms {

using hostk::Syscall;

namespace {
vmm::VmmSpec vmm_spec_for(OsvHypervisor h) {
  return h == OsvHypervisor::kFirecracker ? vmm::VmmCatalog::osv_on_firecracker()
                                          : vmm::VmmCatalog::osv_on_qemu();
}

PlatformId id_for(OsvHypervisor h) {
  return h == OsvHypervisor::kFirecracker ? PlatformId::kOsvFirecracker
                                          : PlatformId::kOsvQemu;
}

std::string name_for(OsvHypervisor h) {
  return h == OsvHypervisor::kFirecracker ? "osv-fc" : "osv";
}
}  // namespace

OsvPlatform::OsvPlatform(core::HostSystem& host, OsvHypervisor hypervisor,
                         unikernel::AppImage app)
    : Platform(id_for(hypervisor), name_for(hypervisor), host),
      vm_(vmm_spec_for(hypervisor), host.kernel()),
      app_(std::move(app)) {
  Capabilities caps;
  caps.fork_exec = false;  // no multi-process support (Section 2.4.1)
  caps.libaio = false;     // fio's libaio engine does not work on OSv
  caps.extra_disk = hypervisor != OsvHypervisor::kFirecracker;
  set_capabilities(caps);
  set_cpu_profile(scheduler_.cpu_profile());
  set_memory_profile(vm_.memory_profile());
  set_net(hypervisor == OsvHypervisor::kFirecracker
              ? net::NetPathCatalog::osv_firecracker()
              : net::NetPathCatalog::osv_qemu());
  if (caps.extra_disk) {
    set_block(storage::BlockPathCatalog::osv_zfs());
  }
}

unikernel::LoadResult OsvPlatform::can_run(const unikernel::AppImage& app) const {
  return linker_.load(app);
}

core::BootTimeline OsvPlatform::compose_boot_timeline() const {
  core::BootTimeline t;
  t.append(vm_.boot_timeline());
  t.append(linker_.link_timeline(app_));
  return t;
}

void OsvPlatform::record_boot_trace(sim::Rng& rng) {
  vm_.record_boot(rng);
}

sim::Nanos OsvPlatform::sync_syscall_cost(sim::Rng& rng) const {
  // A lock handoff through OSv's own primitives: cheap to enter (function
  // call) but the custom scheduler makes contended handoffs expensive.
  return linker_.call_cost(rng) +
         sim::DurationDist::lognormal(sim::nanos(3800), 0.3).sample(rng);
}

void OsvPlatform::record_phase(WorkloadClass w, sim::Rng& rng) {
  auto& k = kernel();
  // Finding 27: OSv executes host kernel functions *sparingly* — guest
  // "syscalls" never leave the guest, and the minimal device set exits
  // rarely. Only a thin KVM_RUN + event-loop trickle reaches the host.
  vm_.record_steady_state(w == WorkloadClass::kCpu ? 8 : 48, rng);
  if (w == WorkloadClass::kNetwork) {
    net().record_traffic(32ull << 20, host().nic(), rng);
  }
  if (w == WorkloadClass::kIo) {
    k.invoke(Syscall::kPread64, rng, 24);
    k.invoke(Syscall::kPwrite64, rng, 24);
  }
}

}  // namespace platforms
