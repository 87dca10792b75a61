// The bare-metal baseline: no isolation at all.
#pragma once

#include "platforms/platform.h"

namespace platforms {

/// Processes run directly on the host kernel. This is the paper's "native"
/// series: every figure's reference point.
class NativePlatform : public Platform {
 public:
  explicit NativePlatform(core::HostSystem& host);

 protected:
  core::BootTimeline compose_boot_timeline() const override;
  void record_boot_trace(sim::Rng& rng) override;
  void record_phase(WorkloadClass w, sim::Rng& rng) override;
};

}  // namespace platforms
