// OSv unikernel architecture (Section 2.4.1 / Figure 4).
//
// OSv runs one application linked against a library OS in ring 0. Its
// dynamic ELF linker resolves glibc syscall wrappers to OSv kernel
// functions, so "syscalls" are plain function calls with no mode switch.
// The price: a custom thread scheduler that the paper blames for the
// severe ffmpeg penalty (Finding 1) and MySQL collapse (Finding 21), and
// no fork()/exec() — multi-process applications cannot run at all
// (platforms::Capabilities::fork_exec).
#pragma once

#include <cstdint>

#include "core/boot.h"
#include "core/cpu_profile.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace unikernel {

/// How an application is packaged for OSv.
struct AppImage {
  std::uint64_t binary_bytes = 12ull << 20;
};

/// The OSv ELF linker: maps the app and resolves Linux ABI calls into the
/// OSv kernel.
class ElfLinker {
 public:
  /// Cost of one resolved "syscall" — a function call, not a mode switch.
  sim::Nanos call_cost(sim::Rng& rng) const;

  /// One-time image fuse + link stages for build.py style image creation.
  core::BootTimeline link_timeline(const AppImage& app) const;
};

/// OSv's custom thread scheduler. Mature Linux CFS has alpha ~0.004 in our
/// CpuProfile terms; OSv's lock-free but simpler scheduler degrades much
/// faster with thread count and struggles with complex SIMD workloads on
/// many threads (the paper's ffmpeg observation).
class OsvScheduler {
 public:
  core::CpuProfile cpu_profile() const;
};

}  // namespace unikernel
