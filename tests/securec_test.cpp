// Tests for the secure-container components: Kata's boot timeline and
// host-visible trace, and gVisor's Sentry/Gofer split.
#include <gtest/gtest.h>

#include "hostk/host_kernel.h"
#include "securec/gvisor.h"
#include "securec/kata.h"
#include "stats/summary.h"

namespace {

using securec::Gofer;
using securec::GvisorPlatform;
using securec::KataRuntime;
using securec::KataSpec;
using securec::Sentry;
using securec::SentrySpec;

struct Fixture : public ::testing::Test {
  hostk::HostKernel kernel;
  sim::Rng rng{808};
};

// --- Kata runtime --------------------------------------------------------

TEST_F(Fixture, KataBootTraceShowsDefenseInDepthSplit) {
  KataRuntime runtime(KataSpec{}, kernel);
  kernel.ftrace().start();
  runtime.record_boot(rng);
  const auto& reg = kernel.registry();
  // Host sees KVM setup and the shared mount...
  EXPECT_GT(kernel.ftrace().count_of(reg.id_of("kvm_vm_ioctl_create_vcpu")), 0u);
  EXPECT_GT(kernel.ftrace().count_of(reg.id_of("attach_recursive_mnt")), 0u);
  // ...but NOT the in-guest namespace creation (that happens inside the VM).
  EXPECT_EQ(kernel.ftrace().count_of(reg.id_of("create_pid_namespace")), 0u);
}

TEST_F(Fixture, KataDaemonVariantAddsDaemonStages) {
  KataRuntime direct(KataSpec{}, kernel);
  KataRuntime via_daemon(KataSpec{.shared_fs = storage::SharedFsProtocol::kNineP,
                                  .via_docker_daemon = true},
                         kernel);
  EXPECT_GT(via_daemon.boot_timeline().mean_total(),
            direct.boot_timeline().mean_total() + sim::millis(150));
}

TEST_F(Fixture, KataVirtioFsNamesItsMountStage) {
  KataRuntime vfs(KataSpec{.shared_fs = storage::SharedFsProtocol::kVirtioFs},
                  kernel);
  const auto timeline = vfs.boot_timeline();
  bool found = false;
  for (const auto& stage : timeline.stages()) {
    found |= stage.name == "kata:share-rootfs-virtio-fs";
  }
  EXPECT_TRUE(found);
}

// --- Sentry / Gofer ------------------------------------------------------

TEST_F(Fixture, SentryInternalSyscallAvoidsHostVfs) {
  Sentry sentry(SentrySpec{}, kernel);
  kernel.ftrace().start();
  sentry.serve_internal(rng);
  const auto& reg = kernel.registry();
  // Interception machinery visible; no host file I/O.
  EXPECT_GT(kernel.ftrace().count_of(reg.id_of("ptrace_stop")), 0u);
  EXPECT_EQ(kernel.ftrace().count_of(reg.id_of("vfs_read")), 0u);
}

TEST_F(Fixture, GoferDoesTheHostVfsWork) {
  Gofer gofer(kernel);
  kernel.ftrace().start();
  gofer.handle_request(128 << 10, rng);
  const auto& reg = kernel.registry();
  EXPECT_GT(kernel.ftrace().count_of(reg.id_of("vfs_read")), 0u);
  EXPECT_GT(kernel.ftrace().count_of(reg.id_of("path_openat")), 0u);
}

TEST_F(Fixture, GoferPathCostsDominateInterception) {
  Sentry sentry(SentrySpec{}, kernel);
  stats::Summary internal, via_gofer;
  for (int i = 0; i < 300; ++i) {
    internal.add(static_cast<double>(sentry.serve_internal(rng)));
    via_gofer.add(static_cast<double>(sentry.serve_via_gofer(128 << 10, rng)));
  }
  // Finding 8: the 9p detour, not interception, dominates I/O cost.
  EXPECT_GT(via_gofer.mean(), internal.mean() * 5);
}

TEST_F(Fixture, KvmPlatformAddsVmSetupStage) {
  Sentry ptrace_sentry(SentrySpec{.platform = GvisorPlatform::kPtrace}, kernel);
  Sentry kvm_sentry(SentrySpec{.platform = GvisorPlatform::kKvm}, kernel);
  EXPECT_GT(kvm_sentry.boot_timeline().stages().size(),
            ptrace_sentry.boot_timeline().stages().size());
}

}  // namespace
