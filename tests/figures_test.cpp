// Figure-level integration tests: every experiment function reproduces
// the paper's qualitative findings (who wins, rough factors, crossovers).
// These run the same code paths as the bench binaries, with reduced
// repetition counts for speed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>

#include "core/figures.h"

namespace {

using core::Bar;

const Bar& bar_of(const std::vector<Bar>& bars, const std::string& name) {
  for (const auto& b : bars) {
    if (b.platform == name) {
      return b;
    }
  }
  throw std::logic_error("no bar for " + name);
}

// --- Figure 5 / Finding 1 ----------------------------------------------

TEST(Figure5, MostPlatformsNear65Seconds) {
  const auto bars = core::figure5_ffmpeg(3);
  for (const auto& b : bars) {
    if (b.platform == "osv" || b.platform == "osv-fc" || b.platform == "gvisor") {
      continue;
    }
    EXPECT_NEAR(b.mean, 65'000, 6'000) << b.platform;
  }
}

TEST(Figure5, OsvSevereOutlier) {
  const auto bars = core::figure5_ffmpeg(3);
  EXPECT_GT(bar_of(bars, "osv").mean, bar_of(bars, "native").mean * 1.3);
  EXPECT_GT(bar_of(bars, "osv-fc").mean, bar_of(bars, "native").mean * 1.3);
}

TEST(Finding1, SysbenchCpuParity) {
  const auto bars = core::finding1_sysbench_cpu(3);
  double lo = 1e18, hi = 0;
  for (const auto& b : bars) {
    lo = std::min(lo, b.mean);
    hi = std::max(hi, b.mean);
  }
  EXPECT_LT(hi / lo, 1.04);
}

// --- Figures 6-8: memory ------------------------------------------------

TEST(Figure6, FirecrackerWorstLatencyAndVariance) {
  const auto curves = core::figure6_memory_latency(6);
  const auto find = [&](const std::string& name) -> const core::Curve& {
    for (const auto& c : curves) {
      if (c.platform == name) {
        return c;
      }
    }
    throw std::logic_error("missing curve " + name);
  };
  const auto& fc = find("firecracker");
  const auto& native = find("native");
  const auto& ch = find("cloud-hypervisor");
  const auto& kata = find("kata-containers");
  const auto& osv = find("osv");
  const std::size_t last = fc.y.size() - 1;
  // Finding 4: Firecracker substantially worst, CH elevated but weaker.
  EXPECT_GT(fc.y[last], native.y[last] * 1.2);
  EXPECT_GT(fc.y[last], ch.y[last]);
  EXPECT_GT(ch.y[last], native.y[last] * 1.02);
  EXPECT_GT(fc.yerr[last], native.yerr[last] * 1.5);
  // Finding 3: Kata (NVDIMM) and OSv/QEMU close to native.
  EXPECT_LT(kata.y[last], native.y[last] * 1.25);
  EXPECT_LT(osv.y[last], native.y[last] * 1.25);
  // Finding 5: OSv under Firecracker underperforms OSv under QEMU.
  EXPECT_GT(find("osv-fc").y[last], osv.y[last] * 1.1);
}

TEST(Figure6, LatencyGrowsWithBufferSize) {
  for (const auto& c : core::figure6_memory_latency(3)) {
    for (std::size_t i = 1; i < c.y.size(); ++i) {
      EXPECT_GE(c.y[i], c.y[i - 1] - 2.0) << c.platform << " @" << i;
    }
    EXPECT_GT(c.y.back(), c.y.front() + 40.0) << c.platform;
  }
}

TEST(Figure6, HugePagesRelieveLargeBuffers) {
  const auto regular = core::figure6_memory_latency(4);
  const auto huge = core::figure6_memory_latency(4, core::kFigureSeed, true);
  for (std::size_t i = 0; i < regular.size(); ++i) {
    if (regular[i].platform == "kata-containers") {
      continue;  // no HugePages support
    }
    // ~30% relief in the larger buffers (paper, Section 3.2).
    EXPECT_LT(huge[i].y.back(), regular[i].y.back() * 0.85)
        << regular[i].platform;
  }
}

TEST(Figure7, HypervisorThroughputPenalty) {
  const auto bars = core::figure7_memory_bandwidth(4);
  const auto find = [&](const std::string& n) {
    for (const auto& b : bars) {
      if (b.platform == n) {
        return b;
      }
    }
    throw std::logic_error("missing " + n);
  };
  const auto native = find("native");
  // Finding 4: Firecracker throughput clearly reduced; QEMU reduced;
  // CH throughput essentially fine; Kata & containers unimpaired.
  EXPECT_LT(find("firecracker").regular_mbps, native.regular_mbps * 0.85);
  EXPECT_LT(find("qemu-kvm").regular_mbps, native.regular_mbps * 0.93);
  EXPECT_GT(find("cloud-hypervisor").regular_mbps, native.regular_mbps * 0.90);
  EXPECT_GT(find("kata-containers").regular_mbps, native.regular_mbps * 0.93);
  EXPECT_GT(find("docker-oci").regular_mbps, native.regular_mbps * 0.95);
  // SSE2 copies are faster everywhere.
  for (const auto& b : bars) {
    EXPECT_GT(b.sse2_mbps, b.regular_mbps) << b.platform;
  }
}

TEST(Figure8, StreamShapeMatchesTinymem) {
  const auto bars = core::figure8_stream(4);
  EXPECT_LT(bar_of(bars, "firecracker").mean,
            bar_of(bars, "native").mean * 0.85);
  EXPECT_GT(bar_of(bars, "kata-containers").mean,
            bar_of(bars, "native").mean * 0.92);
  EXPECT_GT(bar_of(bars, "osv").mean, bar_of(bars, "native").mean * 0.92);
}

// --- Figures 9-10: I/O ----------------------------------------------------

TEST(Figure9, ExclusionsMatchPaper) {
  const auto bars = core::figure9_fio_throughput(2);
  std::map<std::string, bool> excluded;
  for (const auto& b : bars) {
    excluded[b.platform] = b.read.excluded;
  }
  EXPECT_TRUE(excluded.at("firecracker"));
  EXPECT_TRUE(excluded.at("osv"));
  EXPECT_TRUE(excluded.at("osv-fc"));
  EXPECT_FALSE(excluded.at("native"));
  EXPECT_FALSE(excluded.at("gvisor"));
}

TEST(Figure9, SecureContainersAtMostHalf) {
  const auto bars = core::figure9_fio_throughput(3);
  const auto find = [&](const std::string& n) {
    for (const auto& b : bars) {
      if (b.platform == n) {
        return b;
      }
    }
    throw std::logic_error("missing " + n);
  };
  const double native_read = find("native").read.mean;
  EXPECT_LT(find("kata-containers").read.mean, native_read * 0.5);
  EXPECT_LT(find("gvisor").read.mean, native_read * 0.5);
  EXPECT_LT(find("cloud-hypervisor").read.mean, native_read * 0.6);
  EXPECT_GT(find("docker-oci").read.mean, native_read * 0.9);
  EXPECT_GT(find("lxc").read.mean, native_read * 0.9);
  EXPECT_GT(find("qemu-kvm").read.mean, native_read * 0.9);
}

TEST(Figure10, LatencyShape) {
  const auto bars = core::figure10_fio_randread(3);
  EXPECT_TRUE(bar_of(bars, "gvisor").excluded);  // host-cache artifact
  const double native = bar_of(bars, "native").mean;
  const double qemu = bar_of(bars, "qemu-kvm").mean;
  const double ch = bar_of(bars, "cloud-hypervisor").mean;
  const double kata = bar_of(bars, "kata-containers").mean;
  EXPECT_GT(qemu, native * 1.15);  // hypervisors elevated
  EXPECT_LT(ch, qemu);             // CH remarkably good (Finding 9)
  EXPECT_GT(kata, qemu * 1.5);     // Kata exceptionally poor (9p)
}

// --- Figures 11-12: network ------------------------------------------------

TEST(Figure11, ThroughputAnchors) {
  const auto bars = core::figure11_iperf3();
  EXPECT_NEAR(bar_of(bars, "native").mean, 37.28, 1.2);
  EXPECT_NEAR(bar_of(bars, "osv").mean, 36.36, 1.2);
  const double native = bar_of(bars, "native").mean;
  EXPECT_NEAR(bar_of(bars, "docker-oci").mean / native, 0.9016, 0.03);
  EXPECT_NEAR(bar_of(bars, "lxc").mean / native, 0.9081, 0.03);
  EXPECT_NEAR(bar_of(bars, "osv").mean / bar_of(bars, "qemu-kvm").mean, 1.257,
              0.08);
  EXPECT_NEAR(bar_of(bars, "osv-fc").mean / bar_of(bars, "firecracker").mean,
              1.0653, 0.05);
  EXPECT_LT(bar_of(bars, "cloud-hypervisor").mean,
            bar_of(bars, "qemu-kvm").mean);
  EXPECT_LT(bar_of(bars, "gvisor").mean, 6.0);  // extreme outlier
}

TEST(Figure12, LatencyOrdering) {
  const auto bars = core::figure12_netperf();
  const double docker = bar_of(bars, "docker-oci").mean;
  const double lxc = bar_of(bars, "lxc").mean;
  const double kata = bar_of(bars, "kata-containers").mean;
  const double qemu = bar_of(bars, "qemu-kvm").mean;
  const double osv = bar_of(bars, "osv").mean;
  const double gv = bar_of(bars, "gvisor").mean;
  // Finding 10: bridges (Docker, Kata, LXC) perform very well.
  EXPECT_LT(docker, qemu);
  EXPECT_LT(lxc, qemu);
  EXPECT_LT(kata, qemu);
  // Finding 11: OSv slightly better than the hypervisors.
  EXPECT_LT(osv, qemu);
  // Finding 12: gVisor p90 3-4x competitors.
  EXPECT_GT(gv / docker, 2.5);
  EXPECT_LT(gv / docker, 5.5);
}

// --- Figures 13-15: startup -------------------------------------------------

const stats::SampleSet& cdf_of(const std::vector<core::CdfSeries>& series,
                               const std::string& name) {
  for (const auto& s : series) {
    if (s.platform == name) {
      return s.samples_ms;
    }
  }
  throw std::logic_error("missing series " + name);
}

TEST(Figure13, ContainerBootShape) {
  const auto series = core::figure13_container_boot(120);
  EXPECT_NEAR(cdf_of(series, "docker-oci").percentile(50), 100, 35);
  EXPECT_NEAR(cdf_of(series, "gvisor-oci").percentile(50), 190, 60);
  EXPECT_NEAR(cdf_of(series, "kata-oci").percentile(50), 600, 120);
  EXPECT_NEAR(cdf_of(series, "lxc").percentile(50), 800, 130);
  // The Docker daemon adds ~250 ms (Figure 13's OCI comparison).
  EXPECT_NEAR(cdf_of(series, "docker").percentile(50) -
                  cdf_of(series, "docker-oci").percentile(50),
              250, 60);
}

TEST(Figure14, HypervisorBootOrdering) {
  const auto series = core::figure14_hypervisor_boot(120);
  const double ch = cdf_of(series, "cloud-hypervisor").percentile(50);
  const double qemu = cdf_of(series, "qemu-kvm").percentile(50);
  const double qboot = cdf_of(series, "qemu-qboot").percentile(50);
  const double fc = cdf_of(series, "firecracker").percentile(50);
  const double uvm = cdf_of(series, "qemu-microvm").percentile(50);
  EXPECT_LT(ch, qboot);
  EXPECT_LT(qboot, qemu);
  EXPECT_LT(qemu, fc);     // Conclusion 5: FC not the fastest
  EXPECT_LT(fc, uvm);      // Finding 14: uVM unexpectedly slowest
  EXPECT_NEAR(fc, 350, 60);
}

TEST(Figure15, OsvOrderingInvertsAndMethodsSuperimpose) {
  const auto series = core::figure15_osv_boot(120);
  const double fc = cdf_of(series, "osv-firecracker(e2e)").percentile(50);
  const double uvm = cdf_of(series, "osv-qemu-microvm(e2e)").percentile(50);
  const double qemu = cdf_of(series, "osv-qemu(e2e)").percentile(50);
  EXPECT_LT(fc, uvm);
  EXPECT_LT(uvm, qemu);
  // Finding 16: the stdout method superimposes on end-to-end (1-2%).
  for (const auto* name : {"osv-firecracker", "osv-qemu-microvm", "osv-qemu"}) {
    const double e2e = cdf_of(series, std::string(name) + "(e2e)").percentile(50);
    const double sout =
        cdf_of(series, std::string(name) + "(stdout)").percentile(50);
    EXPECT_NEAR(sout / e2e, 0.985, 0.02) << name;
  }
}

// --- Figures 16-17: applications --------------------------------------------

TEST(Figure16, MemcachedShape) {
  const auto bars = core::figure16_memcached(3);
  const double native = bar_of(bars, "native").mean;
  const double docker = bar_of(bars, "docker-oci").mean;
  const double lxc = bar_of(bars, "lxc").mean;
  const double qemu = bar_of(bars, "qemu-kvm").mean;
  const double fc = bar_of(bars, "firecracker").mean;
  const double ch = bar_of(bars, "cloud-hypervisor").mean;
  const double kata = bar_of(bars, "kata-containers").mean;
  const double gv = bar_of(bars, "gvisor").mean;
  // Finding 17: containers on top; the newer the hypervisor the worse.
  EXPECT_GT(docker, qemu);
  EXPECT_GT(lxc, qemu);
  EXPECT_GT(qemu, fc);
  EXPECT_GT(fc, ch);
  EXPECT_LT(docker, native * 1.02);
  // Finding 18: Kata surprisingly low.
  EXPECT_LT(kata, ch * 0.7);
  // Finding 19: gVisor poor (network).
  EXPECT_LT(gv, docker * 0.35);
}

std::string hex_float(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

// A byte pin: every bar at two runs per platform, as hexadecimal floats.
// One run would leave every stddev at 0; the second run also pins that a
// bench's runs draw from nothing but the figure's RNG streams.
TEST(Figure16, BarsArePinned) {
  struct Pin {
    const char* platform;
    const char* mean;
    const char* stddev;
  };
  const Pin pins[] = {
      {"native", "0x1.97a930afbbb7ap+9", "0x1.9bb7c00744cdap-4"},
      {"docker-oci", "0x1.6a25e04e54b1ap+9", "0x1.845f01114b5c8p-1"},
      {"lxc", "0x1.6c3107dbb1998p+9", "0x1.acf7983f6a0a6p-2"},
      {"qemu-kvm", "0x1.e07e99beb216ep+8", "0x1.5a32bf0a3ccbep+1"},
      {"firecracker", "0x1.c761c417448fdp+8", "0x1.e8dcc22309406p-1"},
      {"cloud-hypervisor", "0x1.98716a232c32ap+8", "0x1.0f3abdf8d3644p+0"},
      {"kata-containers", "0x1.b2c8590b21643p+7", "0x0p+0"},
      {"gvisor", "0x1.809d89d89d89ep+7", "0x0p+0"},
      {"osv", "0x1.0f5f0607b5016p+9", "0x1.778b9834c8b87p+1"},
      {"osv-fc", "0x1.00404a23bf664p+9", "0x1.f9f1f3206da73p+0"},
  };
  const auto bars = core::figure16_memcached(2, core::kFigureSeed);
  ASSERT_EQ(bars.size(), std::size(pins));
  for (std::size_t i = 0; i < bars.size(); ++i) {
    EXPECT_EQ(bars[i].platform, pins[i].platform);
    EXPECT_EQ(hex_float(bars[i].mean), pins[i].mean) << pins[i].platform;
    EXPECT_EQ(hex_float(bars[i].stddev), pins[i].stddev) << pins[i].platform;
  }
}

std::uint64_t fold(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return (h ^ bits) * 0x100000001b3ull;
}

// A byte pin like Figure16.BarsArePinned: every curve point's thread
// count, mean and stddev at two runs per platform, folded into one value.
TEST(Figure17, CurvesArePinned) {
  const auto curves = core::figure17_mysql_oltp(2, core::kFigureSeed);
  ASSERT_EQ(curves.size(), 10u);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& c : curves) {
    ASSERT_EQ(c.x.size(), 9u) << c.platform;
    for (std::size_t i = 0; i < c.x.size(); ++i) {
      h = fold(fold(fold(h, c.x[i]), c.y[i]), c.yerr[i]);
    }
  }
  EXPECT_EQ(h, 0xd4aca33ab78f6a6aull);
}

TEST(Figure17, OltpThreeGroups) {
  const auto curves = core::figure17_mysql_oltp(2);
  const auto find = [&](const std::string& n) -> const core::Curve& {
    for (const auto& c : curves) {
      if (c.platform == n) {
        return c;
      }
    }
    throw std::logic_error("missing " + n);
  };
  const auto peak = [](const core::Curve& c) {
    return *std::max_element(c.y.begin(), c.y.end());
  };
  const double docker = peak(find("docker-oci"));
  const double lxc = peak(find("lxc"));
  const double qemu = peak(find("qemu-kvm"));
  const double fc = peak(find("firecracker"));
  const double kata = peak(find("kata-containers"));
  const double gv = peak(find("gvisor"));
  const double osv = peak(find("osv"));
  const double native = peak(find("native"));
  // Group 1 severely low.
  EXPECT_LT(gv, docker * 0.45);
  EXPECT_LT(osv, docker * 0.45);
  // Group 2 around half.
  EXPECT_LT(fc, docker * 0.75);
  EXPECT_LT(kata, docker * 0.85);
  EXPECT_GT(fc, gv);
  // Group 3 alike; native without a significant margin.
  EXPECT_NEAR(lxc / docker, 1.0, 0.15);
  EXPECT_NEAR(qemu / docker, 1.0, 0.25);
  EXPECT_LT(native / docker, 1.6);
}

TEST(Figure17, PeakPositions) {
  const auto curves = core::figure17_mysql_oltp(2);
  for (const auto& c : curves) {
    const auto it = std::max_element(c.y.begin(), c.y.end());
    const double peak_threads = c.x[static_cast<std::size_t>(
        it - c.y.begin())];
    if (c.platform == "native") {
      EXPECT_GE(peak_threads, 80) << "native peaks late (~110)";
    } else if (c.platform == "gvisor" || c.platform == "osv" ||
               c.platform == "osv-fc") {
      EXPECT_LE(peak_threads, 40) << c.platform << " flat/declining";
    } else {
      EXPECT_GE(peak_threads, 40) << c.platform;
      EXPECT_LE(peak_threads, 80) << c.platform;
    }
  }
}

// --- Figure 18: HAP ---------------------------------------------------------

TEST(Figure18, HapOrdering) {
  const auto scores = core::figure18_hap();
  std::map<std::string, double> breadth;
  std::map<std::string, double> extended;
  for (const auto& s : scores) {
    breadth[s.platform] = s.hap_breadth;
    extended[s.platform] = s.extended_hap;
  }
  // Finding 24: Firecracker calls into the host most.
  for (const auto& [name, b] : breadth) {
    if (name != "firecracker") {
      EXPECT_GT(breadth.at("firecracker"), b) << name;
    }
  }
  // Finding 25: Cloud Hypervisor very few.
  EXPECT_LT(breadth.at("cloud-hypervisor"), breadth.at("qemu-kvm") * 0.55);
  // Finding 26: secure containers high vs regular containers.
  EXPECT_GT(breadth.at("kata-containers"), breadth.at("docker-oci"));
  EXPECT_GT(breadth.at("gvisor"), breadth.at("docker-oci"));
  // Finding 27 / Conclusion 8: OSv least.
  for (const auto& [name, b] : breadth) {
    if (name != "osv" && name != "osv-fc") {
      EXPECT_LE(breadth.at("osv"), b) << name;
    }
  }
  // The extended metric preserves the headline ordering.
  EXPECT_GT(extended.at("firecracker"), extended.at("kata-containers"));
  EXPECT_GT(extended.at("kata-containers"), extended.at("docker-oci"));
  EXPECT_LT(extended.at("osv"), extended.at("cloud-hypervisor") * 1.1);
}

}  // namespace
