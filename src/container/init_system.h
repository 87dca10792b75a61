// Guest init systems.
//
// The paper traces LXC's slow startup to its full systemd init versus
// Docker's minimal tini (Finding 13), and patches init() to exit
// immediately for the hypervisor end-to-end measurements (Section 3.5).
#pragma once

#include <string>

#include "core/boot.h"

namespace container {

enum class InitKind {
  kTini,        // Docker's single-purpose init: reap zombies, exec the app
  kSystemd,     // full dependency-resolved unit graph (LXC, Clear Linux)
  kSystemdMini, // Kata's Clear Linux mini-OS: systemd with one target
  kPatchedExit, // the paper's patched init that exits immediately
};

/// Boot stages contributed by the guest's init system.
core::BootTimeline init_system_timeline(InitKind kind);

/// Teardown cost at shutdown (process termination; the paper found this
/// adds only 1-2% to end-to-end measurements).
sim::DurationDist init_system_shutdown(InitKind kind);

}  // namespace container
