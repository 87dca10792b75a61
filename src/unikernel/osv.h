// OSv unikernel architecture (Section 2.4.1 / Figure 4).
//
// OSv runs one application linked against a library OS in ring 0. Its
// dynamic ELF linker resolves glibc syscall wrappers to OSv kernel
// functions, so "syscalls" are plain function calls with no mode switch.
// The price: a custom thread scheduler that the paper blames for the
// severe ffmpeg penalty (Finding 1) and MySQL collapse (Finding 21), and
// no fork()/exec() — multi-process applications cannot run at all.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/boot.h"
#include "core/cpu_profile.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace unikernel {

/// Outcome of asking OSv to run an application.
enum class LoadResult {
  kOk,
  kNotRelocatable,   // not compiled as a shared object / PIE
  kRequiresFork,     // multi-process applications are unsupported
};

/// How an application is packaged for OSv.
struct AppImage {
  std::string name;
  bool position_independent = true;
  bool uses_fork = false;
  std::uint64_t binary_bytes = 12ull << 20;
};

/// The OSv ELF linker: maps the app and resolves Linux ABI calls into the
/// OSv kernel.
class ElfLinker {
 public:
  /// Validate an application against OSv's constraints.
  LoadResult load(const AppImage& app) const;

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

  /// Effective wall-time multiplier for a job using `threads` threads
  /// relative to a mature kernel scheduler at the same thread count.
  double multithread_penalty(int threads) const;
};

}  // namespace unikernel
