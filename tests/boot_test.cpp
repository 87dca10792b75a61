// Tests for boot timelines: device models, boot protocols, container
// runtimes and the hypervisor/OSv orderings of Figures 13-15.
#include <gtest/gtest.h>

#include "container/init_system.h"
#include "container/runtime.h"
#include "core/boot.h"
#include "hostk/host_kernel.h"
#include "sim/rng.h"
#include "stats/sample_set.h"
#include "vmm/device_model.h"
#include "vmm/guest_boot.h"
#include "vmm/vm.h"

namespace {

using container::ContainerRuntime;
using container::InitKind;
using container::RuntimeCatalog;
using core::BootTimeline;
using vmm::BootProtocol;
using vmm::DeviceModelCatalog;
using vmm::GuestKernelCatalog;
using vmm::Vm;
using vmm::VmmCatalog;

double mean_boot_ms(const BootTimeline& t) {
  return sim::to_millis(t.mean_total());
}

TEST(BootTimelineTest, StagesAccumulate) {
  BootTimeline t;
  t.stage("a", sim::DurationDist::constant(sim::millis(10)));
  t.stage("b", sim::DurationDist::constant(sim::millis(5)));
  sim::Rng rng(1);
  const auto result = t.run(rng);
  EXPECT_EQ(result.total, sim::millis(15));
  ASSERT_EQ(result.stages.size(), 2u);
  EXPECT_EQ(result.stages[0].name, "a");
  EXPECT_EQ(t.mean_total(), sim::millis(15));
}

TEST(BootTimelineTest, AppendComposes) {
  BootTimeline a, b;
  a.stage("a", sim::DurationDist::constant(1));
  b.stage("b", sim::DurationDist::constant(2));
  a.append(b);
  EXPECT_EQ(a.stages().size(), 2u);
  EXPECT_EQ(a.mean_total(), 3);
}

TEST(DeviceModelTest, CountsMatchPaper) {
  EXPECT_GE(DeviceModelCatalog::qemu_full().device_count(), 40u);
  EXPECT_EQ(DeviceModelCatalog::firecracker().device_count(), 7u);
  EXPECT_EQ(DeviceModelCatalog::cloud_hypervisor().device_count(), 16u);
}

TEST(DeviceModelTest, FirecrackerTopologyFrozen) {
  const auto fc = DeviceModelCatalog::firecracker();
  EXPECT_TRUE(fc.topology_frozen());
  EXPECT_FALSE(fc.supports_extra_disk());  // Figure 9 exclusion
  EXPECT_TRUE(DeviceModelCatalog::qemu_full().supports_extra_disk());
}

TEST(DeviceModelTest, CloudHypervisorFeatures) {
  const auto ch = DeviceModelCatalog::cloud_hypervisor();
  EXPECT_TRUE(ch.supports_vhost_user());
  EXPECT_TRUE(ch.supports_memory_hotplug());
  EXPECT_TRUE(ch.supports_vcpu_hotplug());
  EXPECT_FALSE(DeviceModelCatalog::firecracker().supports_vhost_user());
}

TEST(DeviceModelTest, MostCloudHypervisorDevicesAreParavirtualized) {
  const auto ch = DeviceModelCatalog::cloud_hypervisor();
  const auto pv = ch.count_of_kind(vmm::DeviceKind::kVirtio) +
                  ch.count_of_kind(vmm::DeviceKind::kVhostUser);
  EXPECT_GT(pv, ch.device_count() / 2);
}

TEST(BootProtocolTest, DirectBootIsCheapest) {
  const double bios = mean_boot_ms(boot_protocol_timeline(BootProtocol::kBios));
  const double qboot = mean_boot_ms(boot_protocol_timeline(BootProtocol::kQboot));
  const double direct =
      mean_boot_ms(boot_protocol_timeline(BootProtocol::kLinux64Direct));
  EXPECT_LT(direct, qboot);
  EXPECT_LT(qboot, bios);
}

TEST(GuestKernelTest, UncompressedVmlinuxLoadsSlowly) {
  const auto bz = guest_kernel_timeline(GuestKernelCatalog::ubuntu_generic(),
                                        BootProtocol::kBios);
  const auto vmlinux = guest_kernel_timeline(
      GuestKernelCatalog::uncompressed_vmlinux(), BootProtocol::kLinux64Direct);
  // The 46 MiB vmlinux image copy dominates; the bzImage pays decompress
  // but loads 4x less data.
  EXPECT_GT(mean_boot_ms(vmlinux), mean_boot_ms(bz));
}

TEST(GuestKernelTest, StrippedKernelsBootFaster) {
  const auto generic = guest_kernel_timeline(GuestKernelCatalog::ubuntu_generic(),
                                             BootProtocol::kQboot);
  const auto kata = guest_kernel_timeline(GuestKernelCatalog::kata_stripped(),
                                          BootProtocol::kQboot);
  EXPECT_LT(mean_boot_ms(kata), mean_boot_ms(generic) * 0.7);
}

TEST(InitSystemTest, SystemdSlowerThanTini) {
  const double tini = mean_boot_ms(init_system_timeline(InitKind::kTini));
  const double systemd = mean_boot_ms(init_system_timeline(InitKind::kSystemd));
  EXPECT_GT(systemd, 400.0);
  EXPECT_LT(tini, 10.0);
}

// --- Figure 14: hypervisor boot ordering -------------------------------

struct HypervisorBoot {
  const char* name;
  double mean_ms;
};

class HypervisorBootFixture : public ::testing::Test {
 protected:
  double boot_ms(const vmm::VmmSpec& spec) {
    hostk::HostKernel kernel;
    Vm vm(spec, kernel);
    return mean_boot_ms(vm.boot_timeline());
  }
};

TEST_F(HypervisorBootFixture, CloudHypervisorFastest) {
  const double ch = boot_ms(VmmCatalog::cloud_hypervisor());
  EXPECT_LT(ch, boot_ms(VmmCatalog::qemu_kvm()));
  EXPECT_LT(ch, boot_ms(VmmCatalog::qemu_qboot()));
  EXPECT_LT(ch, boot_ms(VmmCatalog::firecracker()));
  EXPECT_LT(ch, boot_ms(VmmCatalog::qemu_microvm()));
}

TEST_F(HypervisorBootFixture, FirecrackerAround350ms) {
  // Finding 14 / Conclusion 5: Firecracker is NOT the fastest; its
  // end-to-end boot lands around 350 ms.
  EXPECT_NEAR(boot_ms(VmmCatalog::firecracker()), 350.0, 60.0);
}

TEST_F(HypervisorBootFixture, MicroVmUnexpectedlySlowest) {
  const double uvm = boot_ms(VmmCatalog::qemu_microvm());
  EXPECT_GT(uvm, boot_ms(VmmCatalog::qemu_kvm()));
  EXPECT_GT(uvm, boot_ms(VmmCatalog::firecracker()));
}

TEST_F(HypervisorBootFixture, QbootBeatsSeaBios) {
  EXPECT_LT(boot_ms(VmmCatalog::qemu_qboot()), boot_ms(VmmCatalog::qemu_kvm()));
}

// --- Figure 15: OSv boot ordering inverts ------------------------------

TEST_F(HypervisorBootFixture, OsvOrderingIsOpposite) {
  const double osv_fc = boot_ms(VmmCatalog::osv_on_firecracker());
  const double osv_uvm = boot_ms(VmmCatalog::osv_on_qemu_microvm());
  const double osv_qemu = boot_ms(VmmCatalog::osv_on_qemu());
  EXPECT_LT(osv_fc, osv_uvm);
  EXPECT_LT(osv_uvm, osv_qemu);
}

TEST_F(HypervisorBootFixture, OsvBootsAsFastAsContainers) {
  // Finding 15: unikernels boot generally as fast as containers.
  EXPECT_LT(boot_ms(VmmCatalog::osv_on_firecracker()), 150.0);
}

// --- Figure 13: container boot -----------------------------------------

class ContainerBootFixture : public ::testing::Test {
 protected:
  double boot_ms(const container::RuntimeSpec& spec) {
    hostk::HostKernel kernel;
    ContainerRuntime rt(spec, kernel);
    return mean_boot_ms(rt.boot_timeline());
  }
};

TEST_F(ContainerBootFixture, DockerOciAround100ms) {
  EXPECT_NEAR(boot_ms(RuntimeCatalog::runc_oci()), 100.0, 35.0);
}

TEST_F(ContainerBootFixture, DaemonAddsQuarterSecond) {
  const double oci = boot_ms(RuntimeCatalog::runc_oci());
  const double daemon = boot_ms(RuntimeCatalog::docker_daemon());
  EXPECT_NEAR(daemon - oci, 250.0, 50.0);
}

TEST_F(ContainerBootFixture, LxcAround800msDueToSystemd) {
  EXPECT_NEAR(boot_ms(RuntimeCatalog::lxc()), 800.0, 120.0);
}

TEST_F(ContainerBootFixture, RecordBootTracesSetupSyscalls) {
  hostk::HostKernel kernel;
  ContainerRuntime rt(RuntimeCatalog::runc_oci(), kernel);
  sim::Rng rng(3);
  kernel.ftrace().start();
  rt.record_boot(rng);
  const auto& reg = kernel.registry();
  EXPECT_GT(kernel.ftrace().count_of(reg.id_of("create_new_namespaces")), 0u);
  EXPECT_GT(kernel.ftrace().count_of(reg.id_of("cgroup_attach_task")), 0u);
  EXPECT_GT(kernel.ftrace().count_of(reg.id_of("seccomp_attach_filter")), 0u);
}

TEST_F(ContainerBootFixture, ExecJoinsNamespaces) {
  hostk::HostKernel kernel;
  ContainerRuntime rt(RuntimeCatalog::runc_oci(), kernel);
  sim::Clock clock;
  sim::Rng rng(4);
  kernel.ftrace().start();
  rt.exec_process(clock, rng);
  EXPECT_GT(clock.now(), 0);
  EXPECT_GT(kernel.ftrace().count_of(kernel.registry().id_of("pidns_install")),
            0u);
}

TEST(VmBootTest, KvmSetupTraced) {
  hostk::HostKernel kernel;
  Vm vm(VmmCatalog::qemu_kvm(), kernel);
  sim::Rng rng(5);
  kernel.ftrace().start();
  vm.record_boot(rng);
  const auto& reg = kernel.registry();
  EXPECT_GT(kernel.ftrace().count_of(reg.id_of("kvm_vm_ioctl_create_vcpu")), 0u);
  EXPECT_GT(kernel.ftrace().count_of(reg.id_of("vcpu_enter_guest")), 0u);
}

TEST(VmBootTest, BootCdfIsTight) {
  // 300 startups (the paper's protocol): the CDF should be monotonic and
  // reasonably tight (lognormal stages, ~10-15% spread).
  hostk::HostKernel kernel;
  Vm vm(VmmCatalog::cloud_hypervisor(), kernel);
  sim::Rng rng(6);
  stats::SampleSet samples;
  for (int i = 0; i < 300; ++i) {
    samples.add(sim::to_millis(vm.boot_timeline().run(rng).total));
  }
  EXPECT_LT(samples.summary().cv(), 0.15);
  const auto cdf = samples.cdf(50);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].fraction, cdf[i - 1].fraction);
  }
}

}  // namespace
