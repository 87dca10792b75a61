// The modeled host Linux kernel.
//
// All isolation platforms ultimately execute on one HostKernel instance.
// Invoking a syscall (a) charges its modeled CPU cost and (b) records the
// kernel functions its handler executes into the shared Ftrace — the raw
// material of the paper's HAP study (Section 4). Paths that only build the
// trace record() instead: the same trace and RNG draws, no cost computed.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "hostk/ftrace.h"
#include "hostk/kernel_function.h"
#include "hostk/syscall.h"
#include "sim/distribution.h"
#include "sim/rng.h"

namespace hostk {

/// One kernel function hit by a syscall handler, with its per-invocation
/// multiplicity (e.g. a read hits fsnotify twice).
struct FunctionHit {
  FunctionId fn;
  std::uint32_t count;
};

/// Cost + trace expansion of one syscall.
struct SyscallSpec {
  sim::DurationDist cost = sim::DurationDist::constant(0);
  std::vector<FunctionHit> functions;
};

/// Host kernel model: syscall dispatcher + ftrace instrumentation.
///
/// The symbol registry and the syscall table are built once per process
/// and shared read-only by every kernel, so FunctionIds are comparable
/// across hosts. The ftrace and its trace slots are per kernel and not
/// thread-safe: one thread drives a host at a time, and the simulator
/// models concurrency analytically.
class HostKernel {
 public:
  HostKernel();

  const KernelFunctionRegistry& registry() const { return model_->registry; }
  Ftrace& ftrace() { return ftrace_; }
  const Ftrace& ftrace() const { return ftrace_; }

  /// Execute `count` back-to-back invocations of `sc`: records the kernel
  /// functions into the ftrace and returns the total modeled CPU cost.
  /// The caller charges the cost to whichever clock represents the caller's
  /// execution context.
  sim::Nanos invoke(Syscall sc, sim::Rng& rng, std::uint64_t count = 1);

  /// invoke() for a caller that has no use for the cost (the HAP record
  /// paths): the same trace and the same RNG draws, but the cost sample
  /// is skipped rather than computed. `count == 0` does nothing.
  void record(Syscall sc, sim::Rng& rng, std::uint64_t count = 1);

  /// Exact work counters: calls that sampled a cost (invoke) and calls
  /// that only recorded (record). Calls with `count == 0` do
  /// nothing and count in neither.
  std::uint64_t sampled_calls() const { return sampled_calls_; }
  std::uint64_t recorded_calls() const { return recorded_calls_; }

  /// Record extra kernel functions that run outside any syscall (softirq
  /// network receive path, kthreads like ksmd). Cost-free; trace-only.
  void record_background(const std::vector<FunctionHit>& hits,
                         std::uint64_t repeat = 1);

  /// The spec backing a syscall (exposed for tests).
  const SyscallSpec& spec(Syscall sc) const;

  /// Mean cost of a syscall without dispatching it (analytic planning).
  sim::Nanos mean_cost(Syscall sc) const;

 private:
  /// The immutable half of the model, built on first use by a thread-safe
  /// function-local static and never written afterwards.
  struct Model {
    Model();
    KernelFunctionRegistry registry;
    std::array<SyscallSpec, kSyscallCount> specs;
  };
  static const Model& shared_model();

  /// The trace step invoke() and record() share: adds `count` hits of
  /// every function in `sc`'s expansion while ftrace records.
  const SyscallSpec& trace(Syscall sc, std::uint64_t count);

  /// Per-syscall cache of (counter slot, multiplicity) pairs into the
  /// ftrace's current window, rebuilt lazily when the window generation
  /// changes. Unordered-map node pointers are stable, and the rebuild
  /// touches the window's counters in the same first-touch order record()
  /// would, so counts_ iteration order — and every float sum derived from
  /// it — is unchanged; dispatch just skips the per-function hash lookups.
  struct TraceSlots {
    std::uint64_t generation = 0;
    std::vector<std::pair<std::uint64_t*, std::uint64_t>> slots;
  };

  const Model* model_;
  Ftrace ftrace_;
  std::array<TraceSlots, kSyscallCount> trace_slots_;
  std::uint64_t sampled_calls_ = 0;
  std::uint64_t recorded_calls_ = 0;
};

}  // namespace hostk
