// Tests for the Platform public API: factory, capabilities, profiles,
// boot integration and HAP-visible workload recording.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <set>

#include "platforms/container_platforms.h"
#include "platforms/factory.h"
#include "platforms/hypervisor_platforms.h"
#include "platforms/osv_platform.h"
#include "platforms/secure_platforms.h"
#include "sim/clock.h"

namespace {

using platforms::FactoryOptions;
using platforms::Platform;
using platforms::PlatformFactory;
using platforms::PlatformId;
using platforms::WorkloadClass;

class PlatformFixture : public ::testing::Test {
 protected:
  core::HostSystem host;
  sim::Rng rng{99};
};

TEST_F(PlatformFixture, PaperLineupHasTenPlatforms) {
  const auto lineup = PlatformFactory::paper_lineup(host);
  EXPECT_EQ(lineup.size(), 10u);
  std::set<std::string> names;
  for (const auto& p : lineup) {
    EXPECT_TRUE(names.insert(p->name()).second) << "duplicate " << p->name();
  }
}

TEST_F(PlatformFixture, EveryPlatformBoots) {
  for (const auto& p : PlatformFactory::paper_lineup(host)) {
    sim::Clock clock;
    const auto result = p->boot(clock, rng);
    EXPECT_GT(result.total, 0) << p->name();
    EXPECT_EQ(clock.now(), result.total) << p->name();
    EXPECT_FALSE(result.stages.empty()) << p->name();
  }
}

TEST_F(PlatformFixture, CapabilitiesMatchPaperExclusions) {
  // Every flag of every lineup platform. Firecracker cannot attach a
  // dedicated benchmark disk (with or without OSv), OSv has neither libaio
  // nor fork/exec, and Kata has no huge pages.
  struct Row {
    PlatformId id;
    bool extra_disk, libaio, fork_exec, hugepages;
  };
  const Row rows[] = {
      {PlatformId::kNative, true, true, true, true},
      {PlatformId::kDocker, true, true, true, true},
      {PlatformId::kLxc, true, true, true, true},
      {PlatformId::kQemuKvm, true, true, true, true},
      {PlatformId::kFirecracker, false, true, true, true},
      {PlatformId::kCloudHypervisor, true, true, true, true},
      {PlatformId::kKataContainers, true, true, true, false},
      {PlatformId::kGvisor, true, true, true, true},
      {PlatformId::kOsvQemu, true, false, false, true},
      {PlatformId::kOsvFirecracker, false, false, false, true},
  };
  const auto lineup = PlatformFactory::paper_lineup(host);
  ASSERT_EQ(lineup.size(), std::size(rows));
  for (std::size_t i = 0; i < lineup.size(); ++i) {
    const Platform& p = *lineup[i];
    const platforms::Capabilities& caps = p.capabilities();
    ASSERT_EQ(p.id(), rows[i].id) << i;
    EXPECT_EQ(caps.extra_disk, rows[i].extra_disk) << p.name();
    EXPECT_EQ(caps.libaio, rows[i].libaio) << p.name();
    EXPECT_EQ(caps.fork_exec, rows[i].fork_exec) << p.name();
    EXPECT_EQ(caps.hugepages, rows[i].hugepages) << p.name();
  }
  // Firecracker's root drive exists; only a second, benchmark disk is
  // missing.
  EXPECT_NE(PlatformFactory::create(PlatformId::kFirecracker, host)->block(),
            nullptr);
}

TEST_F(PlatformFixture, MemoryProfilesMatchArchitecture) {
  const auto native = PlatformFactory::create(PlatformId::kNative, host);
  EXPECT_FALSE(native->memory_profile().ept);
  const auto qemu = PlatformFactory::create(PlatformId::kQemuKvm, host);
  EXPECT_TRUE(qemu->memory_profile().ept);
  EXPECT_EQ(qemu->memory_profile().backing_extra_ns, 0.0);
  const auto fc = PlatformFactory::create(PlatformId::kFirecracker, host);
  EXPECT_GT(fc->memory_profile().backing_extra_ns, 0.0);
  const auto kata = PlatformFactory::create(PlatformId::kKataContainers, host);
  EXPECT_EQ(kata->memory_profile().backing_extra_ns, 0.0);  // NVDIMM direct
  EXPECT_FALSE(kata->memory_profile().hugepage_support);
}

TEST_F(PlatformFixture, CpuProfilesSeparateCustomSchedulers) {
  const auto native = PlatformFactory::create(PlatformId::kNative, host);
  const auto osv = PlatformFactory::create(PlatformId::kOsvQemu, host);
  const auto gv = PlatformFactory::create(PlatformId::kGvisor, host);
  EXPECT_GT(osv->cpu_profile().sched_alpha, native->cpu_profile().sched_alpha * 5);
  EXPECT_GT(gv->cpu_profile().futex_cost_factor, 3.0);
  // Finding 1: scalar single-thread work is free everywhere.
  for (const auto& p : PlatformFactory::paper_lineup(host)) {
    EXPECT_DOUBLE_EQ(p->cpu_profile().scalar_factor, 1.0) << p->name();
  }
}

TEST_F(PlatformFixture, SyncSyscallCostOrdering) {
  const auto native = PlatformFactory::create(PlatformId::kNative, host);
  const auto gv = PlatformFactory::create(PlatformId::kGvisor, host);
  const auto osv = PlatformFactory::create(PlatformId::kOsvQemu, host);
  double native_sum = 0, gv_sum = 0, osv_sum = 0;
  for (int i = 0; i < 200; ++i) {
    native_sum += static_cast<double>(native->sync_syscall_cost(rng));
    gv_sum += static_cast<double>(gv->sync_syscall_cost(rng));
    osv_sum += static_cast<double>(osv->sync_syscall_cost(rng));
  }
  // gVisor pays interception on every syscall; OSv pays contended handoffs.
  EXPECT_GT(gv_sum, native_sum * 2);
  EXPECT_GT(osv_sum, native_sum * 2);
}

TEST_F(PlatformFixture, WorkloadRecordingProducesTrace) {
  for (const auto& p : PlatformFactory::paper_lineup(host)) {
    host.kernel().ftrace().start();
    for (const auto w :
         {WorkloadClass::kCpu, WorkloadClass::kMemory, WorkloadClass::kIo,
          WorkloadClass::kNetwork, WorkloadClass::kStartup}) {
      p->record_workload(w, rng);
    }
    EXPECT_GT(host.kernel().ftrace().distinct_functions(), 30u) << p->name();
    host.kernel().ftrace().stop();
  }
}

TEST_F(PlatformFixture, FirecrackerWidestHostInterface) {
  // Finding 24: Firecracker calls into the host kernel most often.
  std::size_t fc_fns = 0, qemu_fns = 0, ch_fns = 0;
  for (const auto id : {PlatformId::kFirecracker, PlatformId::kQemuKvm,
                        PlatformId::kCloudHypervisor}) {
    const auto p = PlatformFactory::create(id, host);
    host.kernel().ftrace().start();
    for (const auto w :
         {WorkloadClass::kCpu, WorkloadClass::kMemory, WorkloadClass::kIo,
          WorkloadClass::kNetwork, WorkloadClass::kStartup}) {
      p->record_workload(w, rng);
    }
    const std::size_t fns = host.kernel().ftrace().distinct_functions();
    host.kernel().ftrace().stop();
    if (id == PlatformId::kFirecracker) fc_fns = fns;
    if (id == PlatformId::kQemuKvm) qemu_fns = fns;
    if (id == PlatformId::kCloudHypervisor) ch_fns = fns;
  }
  EXPECT_GT(fc_fns, qemu_fns);
  EXPECT_LT(ch_fns, qemu_fns);  // Finding 25
}

TEST_F(PlatformFixture, KataVirtioFsOptionChangesBlockPath) {
  FactoryOptions ninep;
  FactoryOptions vfs;
  vfs.kata_shared_fs = storage::SharedFsProtocol::kVirtioFs;
  const auto kata_9p =
      PlatformFactory::create(PlatformId::kKataContainers, host, ninep);
  const auto kata_vfs =
      PlatformFactory::create(PlatformId::kKataContainers, host, vfs);
  EXPECT_EQ(kata_9p->block()->spec().shared_fs,
            storage::SharedFsProtocol::kNineP);
  EXPECT_EQ(kata_vfs->block()->spec().shared_fs,
            storage::SharedFsProtocol::kVirtioFs);
}

TEST_F(PlatformFixture, GvisorKvmPlatformCheaperInterception) {
  platforms::GvisorPlatform ptrace_gv(host, securec::GvisorPlatform::kPtrace);
  platforms::GvisorPlatform kvm_gv(host, securec::GvisorPlatform::kKvm);
  double ptrace_sum = 0, kvm_sum = 0;
  for (int i = 0; i < 300; ++i) {
    ptrace_sum += static_cast<double>(ptrace_gv.sentry().interception_cost(rng));
    kvm_sum += static_cast<double>(kvm_gv.sentry().interception_cost(rng));
  }
  EXPECT_GT(ptrace_sum, kvm_sum * 2);  // "KVM mode ought to be faster"
}

TEST_F(PlatformFixture, DockerDaemonSlowerThanOci) {
  platforms::DockerPlatform oci(host, /*via_daemon=*/false);
  platforms::DockerPlatform daemon(host, /*via_daemon=*/true);
  EXPECT_GT(daemon.boot_timeline().mean_total(),
            oci.boot_timeline().mean_total() + sim::millis(150));
}

TEST_F(PlatformFixture, KataBootDominatedByVmAndAgent) {
  const auto kata = PlatformFactory::create(PlatformId::kKataContainers, host);
  // Figure 13: Kata around 600 ms.
  EXPECT_NEAR(sim::to_millis(kata->boot_timeline().mean_total()), 600.0, 120.0);
}

TEST_F(PlatformFixture, GvisorBootAround190ms) {
  const auto gv = PlatformFactory::create(PlatformId::kGvisor, host);
  EXPECT_NEAR(sim::to_millis(gv->boot_timeline().mean_total()), 190.0, 60.0);
}

TEST_F(PlatformFixture, PlatformIdNamesUnique) {
  std::set<std::string> names;
  for (const auto id :
       {PlatformId::kNative, PlatformId::kDocker, PlatformId::kLxc,
        PlatformId::kQemuKvm, PlatformId::kFirecracker,
        PlatformId::kCloudHypervisor, PlatformId::kKataContainers,
        PlatformId::kGvisor, PlatformId::kOsvQemu,
        PlatformId::kOsvFirecracker}) {
    EXPECT_TRUE(names.insert(platforms::platform_id_name(id)).second);
  }
}

// --- HAP trace draw sequences -------------------------------------------

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ull;
}

// Every platform's record_workload and boot_total RNG draws and ftrace
// counts, with ftrace stopped and then started, folded into one value:
// reports depend on both byte for byte, so a refactor of the boot or
// workload paths must leave it unchanged.
TEST(PlatformTraceTest, DrawSequenceDigestIsPinned) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const bool tracing : {false, true}) {
    for (std::size_t i = 0; i < 10; ++i) {
      core::HostSystem host;
      const auto lineup = PlatformFactory::paper_lineup(host);
      Platform& p = *lineup.at(i);
      const hostk::Ftrace& ftrace = host.kernel().ftrace();
      if (tracing) {
        host.kernel().ftrace().start();
      }
      std::uint64_t seed = 1;
      for (const auto w :
           {WorkloadClass::kCpu, WorkloadClass::kMemory, WorkloadClass::kIo,
            WorkloadClass::kNetwork, WorkloadClass::kStartup}) {
        sim::Rng rng(seed++);
        p.record_workload(w, rng);
        h = fold(h, rng.next_u64());
        h = fold(h, ftrace.total_invocations());
      }
      sim::Rng rng(seed);
      sim::Clock clock;
      h = fold(h, static_cast<std::uint64_t>(p.boot_total(clock, rng)));
      h = fold(h, rng.next_u64());
      h = fold(h, ftrace.total_invocations());
    }
  }
  EXPECT_EQ(h, 0x6ee4dcd5c480bbdeull);
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// The same calls as DrawSequenceDigestIsPinned, but each is followed by a
// real normal() before next_u64(): next_u64() alone cannot see the cached
// Box-Muller variate a record path may leave behind, and a later sampled
// cost reads that variate bit for bit.
TEST(PlatformTraceTest, NextNormalAfterRecordIsPinned) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const bool tracing : {false, true}) {
    for (std::size_t i = 0; i < 10; ++i) {
      core::HostSystem host;
      const auto lineup = PlatformFactory::paper_lineup(host);
      Platform& p = *lineup.at(i);
      if (tracing) {
        host.kernel().ftrace().start();
      }
      std::uint64_t seed = 1;
      for (const auto w :
           {WorkloadClass::kCpu, WorkloadClass::kMemory, WorkloadClass::kIo,
            WorkloadClass::kNetwork, WorkloadClass::kStartup}) {
        sim::Rng rng(seed++);
        p.record_workload(w, rng);
        h = fold(h, bits_of(rng.normal()));
        h = fold(h, rng.next_u64());
      }
      sim::Rng rng(seed);
      sim::Clock clock;
      h = fold(h, static_cast<std::uint64_t>(p.boot_total(clock, rng)));
      h = fold(h, bits_of(rng.normal()));
      h = fold(h, rng.next_u64());
    }
  }
  EXPECT_EQ(h, 0x4052c3a0745fe6aaull);
}

// Trace paths record and never sample a HostKernel cost: every lineup
// platform's record_workload and boot_total, for every class and with
// ftrace off and on, leave sampled_calls() where it was.
TEST(PlatformTraceTest, RecordPathsSampleNoHostKernelCost) {
  for (const bool tracing : {false, true}) {
    core::HostSystem host;
    const hostk::HostKernel& kernel = host.kernel();
    if (tracing) {
      host.kernel().ftrace().start();
    }
    sim::Rng rng(3);
    for (const auto& p : PlatformFactory::paper_lineup(host)) {
      const std::uint64_t recorded = kernel.recorded_calls();
      for (const auto w :
           {WorkloadClass::kCpu, WorkloadClass::kMemory, WorkloadClass::kIo,
            WorkloadClass::kNetwork, WorkloadClass::kStartup}) {
        p->record_workload(w, rng);
      }
      sim::Clock clock;
      p->boot_total(clock, rng);
      EXPECT_EQ(kernel.sampled_calls(), 0u) << p->name();
      EXPECT_GT(kernel.recorded_calls(), recorded) << p->name();
    }
  }
}

// Vm::record_steady_state and NetPath::record_traffic draw nothing while
// ftrace is off, but direct HostKernel::invoke calls always draw. Reports
// depend on this asymmetry, so it is pinned rather than removed.
TEST(PlatformTraceTest, FtraceOffSkipsOnlyTheGatedDraws) {
  const auto next_after_network = [](bool tracing) {
    core::HostSystem host;
    const auto qemu = PlatformFactory::create(PlatformId::kQemuKvm, host);
    if (tracing) {
      host.kernel().ftrace().start();
    }
    sim::Rng rng(7);
    qemu->record_workload(WorkloadClass::kNetwork, rng);
    return rng.next_u64();
  };
  const std::uint64_t untouched = sim::Rng(7).next_u64();
  const std::uint64_t off = next_after_network(false);
  EXPECT_NE(off, untouched);
  EXPECT_NE(off, next_after_network(true));
}

}  // namespace
