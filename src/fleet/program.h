// SyscallProgram: typed per-tenant operation streams over the host kernel.
//
// Statistical workload phases describe *how long* a tenant computes;
// programs describe *what it does*: a compact op list (open/read/mmap/
// send/recv/fsync/... with byte counts, repeat blocks, and think-time
// gaps) interpreted by the fleet engine as first-class deterministic
// events. Every op dispatches through HostKernel::invoke — so its CPU
// cost and per-function ftrace hits come from the real modeled syscall
// table — and its payload rides the shard's page cache, NVMe, and NIC
// exactly like boots and phases do. The shape follows the middleware
// pattern of a typed verb stream (dispatch by op id, not by duration
// scalar) rather than a workload-class scalar.
//
// Programs are opt-in per scenario (TrafficSpec::program_mix); the default
// is all-statistical, which keeps every pinned golden byte-identical.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hostk/syscall.h"
#include "sim/time.h"

namespace fleet {

/// Coarse accounting class of one program op, for the report rollup and
/// the per-op vCPU demand charged while the op is in flight.
enum class OpClass {
  kFile,     // VFS read/write/metadata path
  kMemory,   // address-space ops (mmap/madvise/brk/...)
  kNetwork,  // socket send/receive and readiness
  kSync,     // durability barriers (fsync): NVMe write flush
  kOther,    // everything else: kernel cost only
};
inline constexpr std::size_t kOpClassCount = 5;

std::string op_class_name(OpClass c);

/// Accounting class of a syscall when it appears as a program op.
OpClass op_class(hostk::Syscall sc);

/// True for ops that dirty the page cache instead of reading through it
/// (write/pwrite64/writev): buffered, so the device charge is fsync's.
bool op_is_write(hostk::Syscall sc);

/// vCPUs one in-flight program op demands, on the same scale as the
/// engine's per-workload-class phase demand so programs and statistical
/// phases contend alike.
double op_vcpus(OpClass c);

/// One step of a program: `repeat` back-to-back invocations of `sc`, moving
/// `bytes` of payload each, then an idle `think` gap before the next op.
struct ProgramOp {
  hostk::Syscall sc = hostk::Syscall::kRead;
  /// Payload per invocation: file bytes read/written, mapping length, or
  /// wire bytes, depending on the op's class. 0 = metadata-only.
  std::uint64_t bytes = 0;
  /// Back-to-back invocations folded into one step (one event, one latency
  /// sample, `repeat` ftrace expansions).
  std::uint32_t repeat = 1;
  /// Idle gap after the op completes; excluded from its latency sample.
  sim::Nanos think = 0;
  /// File-backed ops only: use the program-shared file (one per program,
  /// cache-shared across its tenants — an image or common dataset) instead
  /// of the tenant-private stream.
  bool shared_file = false;
};

/// A named op list run `loops` times end-to-end, then the tenant tears
/// down. Interpreted per tenant with the tenant's private RNG, so two
/// tenants running the same program still draw distinct cost samples.
struct SyscallProgram {
  std::string name;
  std::vector<ProgramOp> ops;
  int loops = 1;
};

// Built-in program ids, usable directly in TrafficSpec::program_mix.
inline constexpr int kProgKvServer = 0;       // epoll/recv/pread/send loop
inline constexpr int kProgImagePull = 1;      // shared image pull, then serve
inline constexpr int kProgLogWriter = 2;      // buffered writes + fsync churn
inline constexpr int kProgMmapAnalytics = 3;  // map/scan/unmap working sets

int builtin_program_count();

/// The built-in program table entry; throws std::out_of_range for an index
/// outside [0, builtin_program_count()).
const SyscallProgram& builtin_program(int index);

}  // namespace fleet
