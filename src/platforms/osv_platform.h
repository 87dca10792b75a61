// The OSv unikernel platform (Section 2.4.1).
#pragma once

#include "platforms/platform.h"
#include "unikernel/osv.h"
#include "vmm/vm.h"

namespace platforms {

/// Which hypervisor carries the OSv guest — the paper shows this choice
/// dominates both memory performance (Finding 5) and boot time (Figure 15).
enum class OsvHypervisor { kQemu, kFirecracker };

class OsvPlatform : public Platform {
 public:
  OsvPlatform(core::HostSystem& host, OsvHypervisor hypervisor);

  /// "Syscalls" are function calls into the library OS — no mode switch,
  /// but OSv's own primitives are slower under contention.
  sim::Nanos sync_syscall_cost(sim::Rng& rng) const override;

 protected:
  core::BootTimeline compose_boot_timeline() const override;
  void record_boot_trace(sim::Rng& rng) override;
  void record_phase(WorkloadClass w, sim::Rng& rng) override;

 private:
  vmm::Vm vm_;
  unikernel::ElfLinker linker_;
  unikernel::OsvScheduler scheduler_;
  unikernel::AppImage app_;
};

}  // namespace platforms
