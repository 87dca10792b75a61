// The isolation-platform abstraction — the library's primary public API.
//
// A Platform bundles everything the paper measures about one isolation
// option: its boot sequence (Figures 13-15), CPU/memory/I/O/network
// profiles (Figures 5-12), application-visible syscall costs (Figures
// 16-17), and the host-kernel footprint of running workloads on it
// (Figure 18, the HAP study). Concrete subclasses assemble the models of
// Section 2's architectures; PlatformFactory (factory.h) builds the ten
// configurations the paper evaluates.
#pragma once

#include <memory>
#include <string>

#include "core/boot.h"
#include "core/cpu_profile.h"
#include "core/host_system.h"
#include "mem/hierarchy.h"
#include "net/net_path.h"
#include "sim/clock.h"
#include "sim/rng.h"
#include "storage/block_path.h"

namespace platforms {

enum class PlatformId {
  kNative,
  kDocker,
  kLxc,
  kQemuKvm,
  kFirecracker,
  kCloudHypervisor,
  kKataContainers,
  kGvisor,
  kOsvQemu,
  kOsvFirecracker,
};

std::string platform_id_name(PlatformId id);

/// Feature support; experiments honor these the way the paper excludes
/// platforms from individual figures.
struct Capabilities {
  bool extra_disk = true;    // can attach a dedicated benchmark disk
  bool libaio = true;        // fio's libaio engine works
  bool fork_exec = true;     // multi-process applications
  bool hugepages = true;
  bool smp = true;           // multiple vCPUs available to the guest
};

/// Workload classes traced in the HAP experiment (Section 4).
enum class WorkloadClass { kCpu, kMemory, kIo, kNetwork, kStartup };

class Platform {
 public:
  Platform(PlatformId id, std::string name, core::HostSystem& host);
  virtual ~Platform() = default;

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  PlatformId id() const { return id_; }
  const std::string& name() const { return name_; }
  core::HostSystem& host() { return *host_; }

  const Capabilities& capabilities() const { return caps_; }
  const core::CpuProfile& cpu_profile() const { return cpu_; }
  const mem::MemoryProfile& memory_profile() const { return memory_; }

  /// Network attachment (present on every platform).
  net::NetPath& net() { return *net_; }

  /// Block I/O path; null when the platform cannot attach a test disk.
  storage::BlockPath* block() { return block_.get(); }

  /// The full end-to-end startup sequence (process creation to process
  /// termination, the paper's Section 3.5 convention). Composed on the
  /// first call and kept: a platform's configuration is fixed once it is
  /// constructed, and construction composes nothing.
  const core::BootTimeline& boot_timeline() const;

  /// Boot once: records HAP-visible setup syscalls and advances the clock
  /// by the sampled end-to-end duration.
  core::BootResult boot(sim::Clock& clock, sim::Rng& rng);

  /// boot() without the per-stage BootResult: only the total is sampled.
  /// Identical RNG draw sequence and syscall trace to boot() — the fleet
  /// engine boots thousands of tenants through this.
  sim::Nanos boot_total(sim::Clock& clock, sim::Rng& rng);

  /// Record the host-kernel activity of running one unit of a workload
  /// class on this platform (ftrace must be started by the caller). A
  /// kStartup unit is one boot trace (record_boot_trace); every other
  /// class is a steady-state phase (record_phase).
  void record_workload(WorkloadClass w, sim::Rng& rng);

  /// Guest-visible cost of one synchronization-class syscall (futex wake
  /// or similar): drives the application benchmarks' contention models.
  virtual sim::Nanos sync_syscall_cost(sim::Rng& rng) const;

 protected:
  /// Subclass assembly helpers.
  void set_capabilities(Capabilities caps) { caps_ = caps; }
  void set_cpu_profile(core::CpuProfile cpu) { cpu_ = cpu; }
  void set_memory_profile(mem::MemoryProfile m) { memory_ = m; }
  void set_net(net::NetPathSpec spec);
  void set_block(storage::BlockPathSpec spec);

  /// Composes the startup sequence boot_timeline() keeps.
  virtual core::BootTimeline compose_boot_timeline() const = 0;

  /// HAP-visible boot-time syscalls of one startup.
  virtual void record_boot_trace(sim::Rng& rng) = 0;

  /// Host-kernel activity of one steady-state unit (any class but
  /// kStartup).
  virtual void record_phase(WorkloadClass w, sim::Rng& rng) = 0;

  hostk::HostKernel& kernel() { return host_->kernel(); }

 private:
  PlatformId id_;
  std::string name_;
  core::HostSystem* host_;
  Capabilities caps_;
  core::CpuProfile cpu_;
  mem::MemoryProfile memory_;
  std::unique_ptr<net::NetPath> net_;
  std::unique_ptr<storage::BlockPath> block_;
  mutable core::BootTimeline timeline_;  // empty until first composed
};

}  // namespace platforms
