// gVisor architecture: Sentry (user-space kernel), Gofer, Netstack.
//
// Section 2.3.2: system calls from the container are intercepted by a
// `platform` (ptrace or KVM) and served by the Sentry, a kernel
// re-implementation in user space that itself may only use a seccomp-
// reduced set of host syscalls. All file I/O must be delegated to the
// Gofer over 9p; networking runs in the Sentry's own Netstack.
#pragma once

#include <cstdint>
#include <string>

#include "container/namespaces.h"
#include "core/boot.h"
#include "hostk/host_kernel.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace securec {

/// The syscall interception mechanism.
enum class GvisorPlatform { kPtrace, kKvm };

struct SentrySpec {
  GvisorPlatform platform = GvisorPlatform::kPtrace;
  /// Number of host syscalls the seccomp allowlist admits (~70 in runsc).
  std::size_t seccomp_allowlist_size = 68;
  container::NamespaceSet confinement =
      container::NamespaceSet::sentry_confinement();
};

/// The Sentry: intercepts guest syscalls, serves them in user space.
class Sentry {
 public:
  Sentry(SentrySpec spec, hostk::HostKernel& host);

  const SentrySpec& spec() const { return spec_; }

  /// Cost of intercepting ONE guest syscall and returning to the guest —
  /// ptrace pays two context switches; KVM a lighter mode switch
  /// (the paper: "KVM mode ought to be faster").
  sim::Nanos interception_cost(sim::Rng& rng) const;

  /// Serve one guest syscall entirely inside the Sentry (no host I/O).
  /// Returns the total guest-visible cost and records the reduced host
  /// syscalls the Sentry needs (timers, futexes) into ftrace.
  sim::Nanos serve_internal(sim::Rng& rng);

  /// Serve one guest file-I/O syscall: intercept, then delegate to the
  /// Gofer over 9p. `payload` sizes the 9p messages.
  sim::Nanos serve_via_gofer(std::uint64_t payload, sim::Rng& rng);

  /// Boot stages of runsc: start Sentry, apply seccomp, join namespaces.
  core::BootTimeline boot_timeline() const;

  /// HAP-visible boot activity.
  void record_boot(sim::Rng& rng);

 private:
  SentrySpec spec_;
  hostk::HostKernel* host_;
};

/// The Gofer: the only component allowed to touch host files.
class Gofer {
 public:
  explicit Gofer(hostk::HostKernel& host);

  /// One 9p request handled against the host VFS (open/read/write path).
  sim::Nanos handle_request(std::uint64_t payload, sim::Rng& rng);

  core::BootTimeline boot_timeline() const;

 private:
  hostk::HostKernel* host_;
};

}  // namespace securec
