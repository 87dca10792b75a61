#include "securec/gvisor.h"

#include "sim/distribution.h"
#include "storage/shared_fs.h"

namespace securec {

using hostk::Syscall;
using sim::DurationDist;
using sim::micros;
using sim::millis;

Sentry::Sentry(SentrySpec spec, hostk::HostKernel& host)
    : spec_(spec), host_(&host) {}

sim::Nanos Sentry::interception_cost(sim::Rng& rng) const {
  if (spec_.platform == GvisorPlatform::kPtrace) {
    // PTRACE_SYSEMU: stop the tracee, wake the Sentry, fetch registers,
    // resume — two full context switches per syscall.
    return DurationDist::lognormal(micros(4.6), 0.2).sample(rng);
  }
  // KVM platform: hardware-assisted address-space switch.
  return DurationDist::lognormal(micros(1.5), 0.2).sample(rng);
}

sim::Nanos Sentry::serve_internal(sim::Rng& rng) {
  sim::Nanos cost = interception_cost(rng);
  // Sentry-side handling (Go runtime, goroutine wakeups).
  cost += DurationDist::lognormal(micros(0.9), 0.25).sample(rng);
  // Reduced host footprint of the Sentry's own operation.
  if (host_->ftrace().recording()) {
    if (spec_.platform == GvisorPlatform::kPtrace) {
      host_->record(Syscall::kPtraceSysemu, rng, 1);
      host_->record(Syscall::kPtraceGetregs, rng, 1);
      host_->record(Syscall::kWait4, rng, 1);
    } else {
      host_->record(Syscall::kKvmRun, rng, 1);
    }
    host_->record(Syscall::kFutexWake, rng, 1);
    host_->record(Syscall::kClockGettime, rng, 1);
  }
  return cost;
}

sim::Nanos Sentry::serve_via_gofer(std::uint64_t payload, sim::Rng& rng) {
  sim::Nanos cost = serve_internal(rng);
  const auto ninep = storage::SharedFs::make(storage::SharedFsProtocol::kNineP);
  cost += ninep.op_latency(payload, rng);
  if (host_->ftrace().recording()) {
    // Sentry <-> Gofer socketpair traffic.
    host_->record(Syscall::kSendmsg, rng, ninep.round_trips(payload));
    host_->record(Syscall::kRecvmsg, rng, ninep.round_trips(payload));
  }
  return cost;
}

core::BootTimeline Sentry::boot_timeline() const {
  core::BootTimeline t;
  t.stage("sentry:runsc-invoke", DurationDist::lognormal(millis(18), 0.2));
  t.stage("sentry:boot-kernel", DurationDist::lognormal(millis(80), 0.15));
  t.stage("sentry:seccomp-install", DurationDist::lognormal(millis(3.2), 0.2));
  t.append(spec_.confinement.setup_timeline());
  if (spec_.platform == GvisorPlatform::kKvm) {
    t.stage("sentry:kvm-vm-setup", DurationDist::lognormal(millis(6), 0.2));
  }
  return t;
}

void Sentry::record_boot(sim::Rng& rng) {
  spec_.confinement.record_setup(*host_, rng);
  host_->record(Syscall::kSeccompLoad, rng, 2);  // sentry + gofer filters
  host_->record(Syscall::kPrctl, rng, 2);
  host_->record(Syscall::kMmap, rng, 24);  // Go runtime arenas
  host_->record(Syscall::kFutexWait, rng, 8);
  if (spec_.platform == GvisorPlatform::kKvm) {
    host_->record(Syscall::kKvmCreateVm, rng, 1);
    host_->record(Syscall::kKvmCreateVcpu, rng, 1);
  } else {
    host_->record(Syscall::kPtraceSysemu, rng, 4);
  }
}

Gofer::Gofer(hostk::HostKernel& host) : host_(&host) {}

void Gofer::handle_request(std::uint64_t payload, sim::Rng& rng) {
  // The Gofer performs the real host VFS work on behalf of the Sentry.
  host_->record(Syscall::kRecvmsg, rng, 1);
  host_->record(Syscall::kOpenat, rng, 1);
  host_->record(Syscall::kRead, rng,
                std::max<std::uint64_t>(1, payload >> 16));
  host_->record(Syscall::kSendmsg, rng, 1);
}

core::BootTimeline Gofer::boot_timeline() const {
  core::BootTimeline t;
  t.stage("gofer:spawn", DurationDist::lognormal(millis(22), 0.2));
  t.stage("gofer:attach-rootfs", DurationDist::lognormal(millis(12), 0.2));
  return t;
}

}  // namespace securec
