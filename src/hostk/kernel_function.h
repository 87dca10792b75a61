// Catalog of host Linux kernel functions, the unit of the HAP metric.
//
// The paper measures the Horizontal Attack Profile by ftrace-ing which host
// kernel functions each isolation platform causes to be invoked. Our host
// kernel model carries a registry of real kernel function names grouped by
// subsystem; syscall specs (see host_kernel.h) expand into these functions.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace hostk {

/// Kernel subsystems, used both for catalog organization and for the
/// per-subsystem breakdowns in the HAP report.
enum class Subsystem {
  kSched,
  kMm,
  kVfs,
  kExt4,
  kBlock,
  kNet,
  kKvm,
  kNamespace,
  kCgroup,
  kSecurity,
  kIpc,
  kTime,
  kIrq,
  kSignal,
  kVsock,
  kMisc,
};

std::string_view subsystem_name(Subsystem s);

/// Stable integer handle for a kernel function within a registry.
using FunctionId = std::uint32_t;

struct KernelFunction {
  FunctionId id;
  std::string name;
  Subsystem subsystem;
};

/// Immutable-after-construction registry of the modeled host kernel's
/// function symbols. One registry per process is shared by every
/// HostKernel and all platforms running on them, so FunctionIds are
/// comparable across hosts.
class KernelFunctionRegistry {
 public:
  /// Builds the full catalog (several hundred functions across subsystems).
  KernelFunctionRegistry();

  /// Look up a function id by exact symbol name. Throws std::out_of_range
  /// for unknown symbols — catching typos in syscall specs early.
  FunctionId id_of(std::string_view name) const;

  bool contains(std::string_view name) const;

  const KernelFunction& function(FunctionId id) const;

  std::vector<FunctionId> functions_in(Subsystem s) const;

  std::size_t size() const { return functions_.size(); }

 private:
  void register_function(std::string name, Subsystem s);

  std::vector<KernelFunction> functions_;
  std::unordered_map<std::string, FunctionId> by_name_;
};

}  // namespace hostk
