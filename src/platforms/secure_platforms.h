// Secure-container platforms: Kata Containers and gVisor (Section 2.3).
#pragma once

#include "platforms/platform.h"
#include "securec/gvisor.h"
#include "securec/kata.h"
#include "storage/shared_fs.h"

namespace platforms {

/// Kata Containers: a namespaced container inside a stripped QEMU VM,
/// managed by kata-runtime/kata-agent over vsock ttRPC.
class KataPlatform : public Platform {
 public:
  KataPlatform(core::HostSystem& host,
               storage::SharedFsProtocol shared_fs =
                   storage::SharedFsProtocol::kNineP,
               bool via_daemon = false);

  sim::Nanos sync_syscall_cost(sim::Rng& rng) const override;

 protected:
  core::BootTimeline compose_boot_timeline() const override;
  void record_boot_trace(sim::Rng& rng) override;
  void record_phase(WorkloadClass w, sim::Rng& rng) override;

 private:
  securec::KataRuntime runtime_;
};

/// gVisor: syscall interception into the Sentry user-space kernel, file
/// I/O through the Gofer, networking through Netstack.
class GvisorPlatform : public Platform {
 public:
  GvisorPlatform(core::HostSystem& host,
                 securec::GvisorPlatform intercept =
                     securec::GvisorPlatform::kPtrace,
                 bool via_daemon = false);

  securec::Sentry& sentry() { return sentry_; }

  sim::Nanos sync_syscall_cost(sim::Rng& rng) const override;

 protected:
  core::BootTimeline compose_boot_timeline() const override;
  void record_boot_trace(sim::Rng& rng) override;
  void record_phase(WorkloadClass w, sim::Rng& rng) override;

 private:
  bool via_daemon_;
  securec::Sentry sentry_;
  securec::Gofer gofer_;
};

}  // namespace platforms
