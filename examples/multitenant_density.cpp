// Multi-tenant density vs isolation trade-off explorer.
//
// Section 3.2 discusses KSM: sharing identical pages across VMs increases
// density but weakens the isolation boundary (cross-VM side channels).
// Section 4's HAP quantifies the host attack surface. This example places
// tenants on one host and reports, per platform: how many fit (with and
// without KSM), and what host attack surface each choice exposes.
#include <cstdio>
#include <vector>

#include "core/host_system.h"
#include "fleet/cluster.h"
#include "fleet/scenario.h"
#include "hap/hap.h"
#include "mem/ksm.h"
#include "platforms/factory.h"

namespace {

/// Deterministic page digests for a tenant: a shared base image plus
/// tenant-private dirty pages.
std::vector<mem::PageDigest> tenant_pages(std::uint64_t tenant,
                                          std::uint64_t base_pages,
                                          std::uint64_t private_pages) {
  std::vector<mem::PageDigest> pages;
  pages.reserve(base_pages + private_pages);
  for (std::uint64_t p = 0; p < base_pages; ++p) {
    pages.push_back(0xBA5E'0000'0000ull + p);  // identical across tenants
  }
  for (std::uint64_t p = 0; p < private_pages; ++p) {
    pages.push_back((tenant << 32) | p);
  }
  return pages;
}

}  // namespace

int main() {
  constexpr std::uint64_t kGuestRamMb = 512;
  constexpr std::uint64_t kHostRamMb = 16 * 1024;
  constexpr std::uint64_t kPagesPerMb = 256;
  constexpr std::uint64_t kBasePages = 300 * kPagesPerMb;  // shared image
  constexpr std::uint64_t kPrivatePages =
      (kGuestRamMb - 300) * kPagesPerMb;

  // --- Density with and without KSM -------------------------------------
  mem::Ksm ksm;
  std::uint64_t tenants_with_ksm = 0;
  const std::uint64_t host_pages = kHostRamMb * kPagesPerMb;
  for (std::uint64_t t = 1; t <= 128; ++t) {
    ksm.advise(t, tenant_pages(t, kBasePages, kPrivatePages));
    ksm.scan();
    if (ksm.backing_pages() > host_pages) {
      ksm.remove(t);
      ksm.scan();
      break;
    }
    tenants_with_ksm = t;
  }
  const std::uint64_t tenants_without_ksm = kHostRamMb / kGuestRamMb;

  std::printf("Host: %llu MiB RAM; tenants want %llu MiB each\n",
              static_cast<unsigned long long>(kHostRamMb),
              static_cast<unsigned long long>(kGuestRamMb));
  std::printf("  without KSM : %llu tenants\n",
              static_cast<unsigned long long>(tenants_without_ksm));
  std::printf("  with KSM    : %llu tenants (density gain %.2fx,\n"
              "                but %.0f%% of pages shared across tenants -\n"
              "                exposed to cross-VM timing channels)\n\n",
              static_cast<unsigned long long>(tenants_with_ksm),
              ksm.density_gain(), 100.0 * ksm.shared_fraction());

  // --- Attack surface of the platform choice ----------------------------
  core::HostSystem host;
  sim::Rng rng = host.rng().fork();
  const hap::HapExperiment hap_exp;
  std::printf("%-18s %13s %14s  %s\n", "platform", "distinct fns",
              "extended HAP", "isolation notes");
  for (const auto id :
       {platforms::PlatformId::kDocker, platforms::PlatformId::kQemuKvm,
        platforms::PlatformId::kFirecracker,
        platforms::PlatformId::kKataContainers,
        platforms::PlatformId::kGvisor, platforms::PlatformId::kOsvQemu}) {
    auto platform = platforms::PlatformFactory::create(id, host);
    const auto score = hap_exp.measure(*platform, rng);
    const char* note = "";
    switch (id) {
      case platforms::PlatformId::kKataContainers:
        note = "wide HAP but defense-in-depth (ns + VM)";
        break;
      case platforms::PlatformId::kGvisor:
        note = "wide HAP but defense-in-depth (Sentry)";
        break;
      case platforms::PlatformId::kFirecracker:
        note = "minimal devices != minimal host interface";
        break;
      case platforms::PlatformId::kOsvQemu:
        note = "narrowest host interface";
        break;
      default:
        break;
    }
    std::printf("%-18s %13zu %14.2f  %s\n", platform->name().c_str(),
                score.distinct_functions, score.extended_hap, note);
  }
  std::printf(
      "\nThe HAP measures breadth only: Kata and gVisor score wide yet add\n"
      "vertical defense-in-depth the metric cannot see (Finding 28).\n");

  // --- The same question, dynamically ------------------------------------
  // The static count above assumes tenants arrive once and stay. The fleet
  // engine replays the sweep as a live scenario: tenants boot, run phases
  // and tear down while admission control tracks the KSM-merged resident
  // set against host RAM.
  auto sweep = fleet::Scenario::density_sweep(128);
  sweep.guest_ram_bytes = kGuestRamMb << 20;
  sweep.arrival_window = sim::millis(150);  // arrivals outpace teardowns
  sweep.cluster.ram_bytes = kHostRamMb << 20;
  const auto report = fleet::Cluster(sweep.cluster).run(sweep);
  std::printf(
      "\nDynamic sweep (fleet engine, %d offered tenants): %d admitted\n"
      "before the RAM wall, KSM gain %.2fx at peak residency %.1f GiB.\n",
      sweep.tenant_count, report.admitted, report.ksm.density_gain,
      static_cast<double>(report.peak_resident_bytes) / (1ull << 30));
  return 0;
}
