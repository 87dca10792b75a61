// Tests for the container building blocks: namespaces, cgroups, init
// systems, storage drivers, and OSv's syscall and link costs.
#include <gtest/gtest.h>

#include "container/cgroups.h"
#include "container/init_system.h"
#include "container/namespaces.h"
#include "container/runtime.h"
#include "hostk/host_kernel.h"
#include "stats/summary.h"
#include "unikernel/osv.h"

namespace {

using container::Cgroup;
using container::CgroupLimits;
using container::CgroupVersion;
using container::InitKind;
using container::NamespaceKind;
using container::NamespaceSet;

struct Fixture : public ::testing::Test {
  hostk::HostKernel kernel;
  sim::Rng rng{911};
};

TEST_F(Fixture, RuncDefaultNamespaces) {
  const auto ns = NamespaceSet::runc_default();
  EXPECT_EQ(ns.size(), 6u);
  EXPECT_TRUE(ns.contains(NamespaceKind::kPid));
  EXPECT_TRUE(ns.contains(NamespaceKind::kNet));
  EXPECT_TRUE(ns.contains(NamespaceKind::kMnt));
  // Rootful runc does not unshare the user namespace by default.
  EXPECT_FALSE(ns.contains(NamespaceKind::kUser));
}

TEST_F(Fixture, LxcUnprivilegedAddsUserNamespace) {
  const auto ns = NamespaceSet::lxc_unprivileged();
  EXPECT_TRUE(ns.contains(NamespaceKind::kUser));
  EXPECT_EQ(ns.size(), 7u);
}

TEST_F(Fixture, NetworkNamespaceDominatesSetupCost) {
  const auto timeline = NamespaceSet::runc_default().setup_timeline();
  sim::Nanos net_cost = 0, other_max = 0;
  for (const auto& stage : timeline.stages()) {
    if (stage.name == "ns:net") {
      net_cost = stage.duration.mean();
    } else {
      other_max = std::max(other_max, stage.duration.mean());
    }
  }
  EXPECT_GT(net_cost, other_max * 5);
}

TEST_F(Fixture, NamespaceSetupTracesUnshareAndMounts) {
  kernel.ftrace().start();
  NamespaceSet::runc_default().record_setup(kernel, rng);
  const auto& reg = kernel.registry();
  EXPECT_GT(kernel.ftrace().count_of(reg.id_of("unshare_nsproxy_namespaces")),
            0u);
  EXPECT_GT(kernel.ftrace().count_of(reg.id_of("pivot_root")), 0u);
  EXPECT_GT(kernel.ftrace().count_of(reg.id_of("setup_net")), 0u);
}

TEST_F(Fixture, CgroupControllerWritesMatchLimits) {
  Cgroup full(CgroupVersion::kV2,
              CgroupLimits{.cpu_shares = 512.0, .memory_max = 1ull << 30,
                           .pids_max = 100, .io_weight = 50.0});
  EXPECT_EQ(full.controller_writes(), 4u);
  Cgroup sparse(CgroupVersion::kV2, CgroupLimits{});
  EXPECT_EQ(sparse.controller_writes(), 0u);
}

TEST_F(Fixture, CgroupV2SetupCheaperThanV1) {
  const CgroupLimits limits{.cpu_shares = 512.0, .memory_max = 1ull << 30,
                            .pids_max = {}, .io_weight = {}};
  Cgroup v1(CgroupVersion::kV1, limits);
  Cgroup v2(CgroupVersion::kV2, limits);
  EXPECT_LT(v2.setup_timeline().mean_total(), v1.setup_timeline().mean_total());
}

TEST_F(Fixture, InitSystemOrdering) {
  const auto mean_ms = [](InitKind k) {
    return sim::to_millis(container::init_system_timeline(k).mean_total());
  };
  EXPECT_LT(mean_ms(InitKind::kPatchedExit), mean_ms(InitKind::kTini));
  EXPECT_LT(mean_ms(InitKind::kTini), mean_ms(InitKind::kSystemdMini));
  EXPECT_LT(mean_ms(InitKind::kSystemdMini), mean_ms(InitKind::kSystemd));
}

TEST_F(Fixture, ShutdownOverheadSmall) {
  // Finding 16: process-termination overhead is 1-2% of end-to-end.
  for (const auto kind : {InitKind::kTini, InitKind::kSystemd,
                          InitKind::kSystemdMini, InitKind::kPatchedExit}) {
    EXPECT_LT(container::init_system_shutdown(kind).mean(), sim::millis(12));
  }
}

TEST_F(Fixture, StorageDriverNames) {
  EXPECT_EQ(container::storage_driver_name(container::StorageDriver::kZfs),
            "zfs");
  EXPECT_EQ(container::storage_driver_name(container::StorageDriver::kOverlay2),
            "overlay2");
}

TEST_F(Fixture, LxcUsesZfsAndSystemd) {
  const auto spec = container::RuntimeCatalog::lxc();
  EXPECT_EQ(spec.storage, container::StorageDriver::kZfs);
  EXPECT_EQ(spec.init, InitKind::kSystemd);
  const auto docker = container::RuntimeCatalog::runc_oci();
  EXPECT_EQ(docker.storage, container::StorageDriver::kOverlay2);
  EXPECT_EQ(docker.init, InitKind::kTini);
}

TEST_F(Fixture, UnprivilegedLxcUsesCgroupsV2) {
  // Section 2.2.2: LXC runs unprivileged containers on the newer v2.
  const auto spec = container::RuntimeCatalog::lxc_unprivileged();
  EXPECT_EQ(spec.cgroup_version, CgroupVersion::kV2);
  EXPECT_TRUE(spec.namespaces.contains(NamespaceKind::kUser));
}

// --- OSv constraints (Section 2.4.1) ---------------------------------------

TEST(OsvConstraintTest, SyscallIsJustAFunctionCall) {
  const unikernel::ElfLinker linker;
  hostk::HostKernel kernel;
  sim::Rng rng(3);
  stats::Summary call;
  for (int i = 0; i < 500; ++i) {
    call.add(static_cast<double>(linker.call_cost(rng)));
  }
  // Far below a real user->kernel mode switch (~250ns+).
  EXPECT_LT(call.mean(), 100.0);
}

TEST(OsvConstraintTest, LinkTimeScalesWithBinarySize) {
  const unikernel::ElfLinker linker;
  const auto small = linker.link_timeline({.binary_bytes = 1 << 20});
  const auto large = linker.link_timeline({.binary_bytes = 256ull << 20});
  EXPECT_GT(large.mean_total(), small.mean_total() * 5);
}

}  // namespace
