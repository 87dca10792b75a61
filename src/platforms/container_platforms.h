// Namespace-based container platforms: Docker and LXC (Section 2.2).
#pragma once

#include "container/runtime.h"
#include "platforms/platform.h"

namespace platforms {

/// Docker: runc + overlay2 + bridge networking + tini init. Constructed
/// either through the Docker daemon or by invoking the OCI runtime
/// directly (Figure 13 plots both).
class DockerPlatform : public Platform {
 public:
  DockerPlatform(core::HostSystem& host, bool via_daemon);

 protected:
  core::BootTimeline compose_boot_timeline() const override;
  void record_boot_trace(sim::Rng& rng) override;
  void record_phase(WorkloadClass w, sim::Rng& rng) override;

 private:
  container::ContainerRuntime runtime_;
};

/// LXC: "an environment as close as possible to a standard Linux
/// installation" — full systemd init and a ZFS storage pool.
class LxcPlatform : public Platform {
 public:
  LxcPlatform(core::HostSystem& host, bool unprivileged = false);

 protected:
  core::BootTimeline compose_boot_timeline() const override;
  void record_boot_trace(sim::Rng& rng) override;
  void record_phase(WorkloadClass w, sim::Rng& rng) override;

 private:
  container::ContainerRuntime runtime_;
};

}  // namespace platforms
