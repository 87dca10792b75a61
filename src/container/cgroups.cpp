#include "container/cgroups.h"

namespace container {

using sim::DurationDist;
using sim::micros;

Cgroup::Cgroup(CgroupVersion version, CgroupLimits limits)
    : version_(version), limits_(limits) {}

std::size_t Cgroup::controller_writes() const {
  std::size_t writes = 0;
  writes += limits_.cpu_shares.has_value();
  writes += limits_.memory_max.has_value();
  writes += limits_.pids_max.has_value();
  writes += limits_.io_weight.has_value();
  return writes;
}

core::BootTimeline Cgroup::setup_timeline() const {
  core::BootTimeline t;
  // v1 touches one hierarchy per controller; v2 one unified directory.
  const sim::Nanos mkdir_cost =
      version_ == CgroupVersion::kV1 ? micros(900) : micros(350);
  t.stage("cgroup:mkdir", DurationDist::lognormal(mkdir_cost, 0.2));
  for (std::size_t i = 0; i < controller_writes(); ++i) {
    t.stage("cgroup:write-limit", DurationDist::lognormal(micros(180), 0.2));
  }
  t.stage("cgroup:attach-task", DurationDist::lognormal(micros(260), 0.2));
  return t;
}

void Cgroup::record_setup(hostk::HostKernel& host, sim::Rng& rng) const {
  using hostk::Syscall;
  host.record(Syscall::kCgroupWrite, rng, 1 + controller_writes());
  host.record(Syscall::kOpenat, rng, 1 + controller_writes());
  host.record(Syscall::kClose, rng, 1 + controller_writes());
}

}  // namespace container
