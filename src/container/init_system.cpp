#include "container/init_system.h"

namespace container {

using sim::DurationDist;
using sim::millis;

core::BootTimeline init_system_timeline(InitKind kind) {
  core::BootTimeline t;
  switch (kind) {
    case InitKind::kTini:
      t.stage("init:tini-exec", DurationDist::lognormal(millis(4), 0.20));
      break;
    case InitKind::kSystemd:
      // Full unit graph: udev, journald, mounts, sockets, targets.
      t.stage("init:systemd-pid1", DurationDist::lognormal(millis(70), 0.15));
      t.stage("init:systemd-udev", DurationDist::lognormal(millis(170), 0.20));
      t.stage("init:systemd-units", DurationDist::lognormal(millis(420), 0.18));
      break;
    case InitKind::kSystemdMini:
      // Clear Linux mini-OS: systemd trimmed to launching the kata-agent.
      t.stage("init:systemd-pid1", DurationDist::lognormal(millis(60), 0.15));
      t.stage("init:systemd-agent-unit",
              DurationDist::lognormal(millis(220), 0.18));
      break;
    case InitKind::kPatchedExit:
      t.stage("init:patched-exit", DurationDist::lognormal(millis(0.8), 0.25));
      break;
  }
  return t;
}

sim::DurationDist init_system_shutdown(InitKind kind) {
  switch (kind) {
    case InitKind::kSystemd:
      return DurationDist::lognormal(millis(9), 0.3);
    case InitKind::kSystemdMini:
      return DurationDist::lognormal(millis(5), 0.3);
    case InitKind::kTini:
    case InitKind::kPatchedExit:
      return DurationDist::lognormal(millis(1.5), 0.3);
  }
  return DurationDist::constant(0);
}

}  // namespace container
