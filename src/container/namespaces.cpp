#include "container/namespaces.h"

#include <algorithm>

namespace container {

using sim::DurationDist;
using sim::micros;

std::string_view namespace_name(NamespaceKind k) {
  switch (k) {
    case NamespaceKind::kPid:
      return "pid";
    case NamespaceKind::kNet:
      return "net";
    case NamespaceKind::kMnt:
      return "mnt";
    case NamespaceKind::kUts:
      return "uts";
    case NamespaceKind::kIpc:
      return "ipc";
    case NamespaceKind::kUser:
      return "user";
    case NamespaceKind::kCgroup:
      return "cgroup";
  }
  return "unknown";
}

NamespaceSet::NamespaceSet(std::initializer_list<NamespaceKind> kinds)
    : kinds_(kinds) {}

NamespaceSet NamespaceSet::runc_default() {
  return NamespaceSet{NamespaceKind::kPid, NamespaceKind::kNet,
                      NamespaceKind::kMnt, NamespaceKind::kUts,
                      NamespaceKind::kIpc, NamespaceKind::kCgroup};
}

NamespaceSet NamespaceSet::lxc_unprivileged() {
  return NamespaceSet{NamespaceKind::kPid,  NamespaceKind::kNet,
                      NamespaceKind::kMnt,  NamespaceKind::kUts,
                      NamespaceKind::kIpc,  NamespaceKind::kCgroup,
                      NamespaceKind::kUser};
}

NamespaceSet NamespaceSet::sentry_confinement() {
  return NamespaceSet{NamespaceKind::kPid, NamespaceKind::kNet,
                      NamespaceKind::kMnt, NamespaceKind::kUser};
}

bool NamespaceSet::contains(NamespaceKind k) const {
  return std::find(kinds_.begin(), kinds_.end(), k) != kinds_.end();
}

core::BootTimeline NamespaceSet::setup_timeline() const {
  core::BootTimeline t;
  for (const auto k : kinds_) {
    // Network namespaces are by far the dearest (devices, sysctls, lo up).
    const sim::Nanos mean =
        k == NamespaceKind::kNet ? sim::millis(2.8) : micros(220);
    t.stage(std::string("ns:") + std::string(namespace_name(k)),
            DurationDist::lognormal(mean, 0.25));
  }
  return t;
}

void NamespaceSet::record_setup(hostk::HostKernel& host, sim::Rng& rng) const {
  using hostk::Syscall;
  host.record(Syscall::kUnshare, rng, 1);
  for (const auto k : kinds_) {
    switch (k) {
      case NamespaceKind::kMnt:
        host.record(Syscall::kMount, rng, 3);  // proc, sysfs, tmpfs
        host.record(Syscall::kPivotRoot, rng, 1);
        break;
      case NamespaceKind::kNet:
        host.record(Syscall::kSocket, rng, 2);  // netlink config sockets
        host.record(Syscall::kSetsockopt, rng, 2);
        break;
      case NamespaceKind::kPid:
        host.record(Syscall::kProcRead, rng, 1);
        break;
      default:
        host.record(Syscall::kSetns, rng, 1);
        break;
    }
  }
}

}  // namespace container
