// Tests for the fleet scenario engine: event ordering, scenario policies,
// contention and density behavior, and the byte-identical-report guarantee.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "core/host_system.h"
#include "fleet/cluster.h"
#include "fleet/engine.h"
#include "fleet/event_queue.h"
#include "fleet/placement.h"
#include "fleet/report.h"
#include "fleet/scenario.h"

namespace {

using fleet::ArrivalPattern;
using fleet::Cluster;
using fleet::EventKind;
using fleet::EventQueue;
using fleet::FleetEngine;
using fleet::FleetReport;
using fleet::Scenario;

/// One run on a fresh 1-host cluster; `host_ram_bytes` is the admission
/// cap.
FleetReport run_fresh(
    const Scenario& s,
    std::uint64_t host_ram_bytes = core::HostSystemSpec{}.ram_bytes) {
  fleet::ClusterTopology topo = s.cluster;
  topo.ram_bytes = host_ram_bytes;
  return Cluster(topo).run(s);
}

// --- Event queue ----------------------------------------------------------

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  q.push(sim::millis(30), 1, EventKind::kBootDone);
  q.push(sim::millis(10), 2, EventKind::kArrival);
  q.push(sim::millis(20), 3, EventKind::kPhaseDone);
  EXPECT_EQ(q.pop().tenant, 2u);
  EXPECT_EQ(q.pop().tenant, 3u);
  EXPECT_EQ(q.pop().tenant, 1u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, TiesBreakInPushOrder) {
  EventQueue q;
  for (std::uint64_t t = 0; t < 16; ++t) {
    q.push(sim::millis(5), t, EventKind::kArrival);
  }
  for (std::uint64_t t = 0; t < 16; ++t) {
    const auto e = q.pop();
    EXPECT_EQ(e.tenant, t);
    EXPECT_EQ(e.time, sim::millis(5));
  }
}

TEST(EventQueueTest, PushBeforeLastPoppedTimeThrows) {
  // The engine only schedules at or after the instant it is handling; the
  // queue refuses a push before the last popped time and leaves its
  // contents as they were. Before the first pop any time goes.
  EventQueue q;
  q.push(sim::millis(20), 1, EventKind::kArrival);
  q.push(-5, 2, EventKind::kArrival);
  EXPECT_EQ(q.pop().tenant, 2u);
  EXPECT_EQ(q.pop().tenant, 1u);
  q.push(sim::millis(30), 3, EventKind::kBootDone);
  EXPECT_THROW(q.push(sim::millis(20) - 1, 4, EventKind::kPhaseDone),
               std::logic_error);
  EXPECT_EQ(q.size(), 1u);
  q.push(sim::millis(20), 5, EventKind::kPhaseDone);  // the popped instant
  EXPECT_EQ(q.pop().tenant, 5u);
  EXPECT_EQ(q.pop().tenant, 3u);
  EXPECT_TRUE(q.empty());
}

// --- Scenario policies ----------------------------------------------------

TEST(ScenarioTest, BuiltinsAreWellFormed) {
  for (const auto& s :
       {Scenario::coldstart_storm(), Scenario::density_sweep(),
        Scenario::steady_state_mix()}) {
    EXPECT_FALSE(s.platform_mix.empty()) << s.name;
    EXPECT_FALSE(s.workload_mix.empty()) << s.name;
    EXPECT_GT(s.tenant_count, 0) << s.name;
    EXPECT_GT(s.phases_per_tenant, 0) << s.name;
  }
}

TEST(ScenarioTest, StormUsesAtLeastThreePlatformTypes) {
  const auto s = Scenario::coldstart_storm(64);
  EXPECT_GE(s.platform_mix.size(), 3u);
  EXPECT_GE(s.tenant_count, 64);
}

TEST(ScenarioTest, EmptyMixIsRejected) {
  Scenario s;
  s.platform_mix.clear();
  Cluster cluster(s.cluster);
  EXPECT_THROW(cluster.run(s), std::invalid_argument);
}

// --- Engine lifecycle -----------------------------------------------------

TEST(FleetEngineTest, StormRunsEveryTenantToCompletion) {
  const auto s = Scenario::coldstart_storm(64);
  const auto report = run_fresh(s);
  EXPECT_EQ(report.admitted, 64);
  EXPECT_EQ(report.rejected, 0);
  EXPECT_EQ(report.completed, 64);
  EXPECT_EQ(report.tenants.size(), 64u);
  int boot_samples = 0;
  std::set<std::string> platforms_used;
  for (const auto& [name, stats] : report.by_platform) {
    boot_samples += static_cast<int>(stats.boot_ms.size());
    platforms_used.insert(name);
  }
  EXPECT_EQ(boot_samples, 64);
  EXPECT_GE(platforms_used.size(), 3u);
  for (const auto& t : report.tenants) {
    EXPECT_TRUE(t.completed);
    EXPECT_EQ(t.phases_run, s.phases_per_tenant);
    EXPECT_GT(t.boot_latency, 0);
    EXPECT_GE(t.completion, t.arrival + t.boot_latency);
  }
  EXPECT_GT(report.makespan, 0);
  EXPECT_EQ(report.peak_active, 64);  // storm: everyone in flight at once
}

TEST(FleetEngineTest, ReusedEngineBuildsACompleteSecondReport) {
  // run() hands its report over instead of copying it; a second run on the
  // same engine must still produce a whole one. The host is warm by then,
  // so only the report's shape is compared, not its bytes.
  const auto s = Scenario::coldstart_storm(32);
  Cluster cluster(s.cluster);
  const auto policy = fleet::make_placement(s.placement);
  FleetEngine engine(cluster, *policy);
  const FleetReport first = engine.run(s);
  const FleetReport second = engine.run(s);
  EXPECT_EQ(second.tenants.size(), 32u);
  EXPECT_EQ(second.admitted, first.admitted);
  ASSERT_EQ(second.by_platform.size(), first.by_platform.size());
  for (const auto& [name, stats] : first.by_platform) {
    const auto it = second.by_platform.find(name);
    ASSERT_NE(it, second.by_platform.end()) << name;
    EXPECT_EQ(it->second.tenants, stats.tenants) << name;
    EXPECT_EQ(it->second.boot_ms.size(), stats.boot_ms.size()) << name;
  }
}

TEST(FleetEngineTest, FleetHapRollupCoversTheRun) {
  const auto report = run_fresh(Scenario::coldstart_storm(16));
  EXPECT_GT(report.hap.distinct_functions, 0u);
  EXPECT_GT(report.hap.total_invocations, 0u);
  EXPECT_GT(report.hap.extended_hap, 0.0);
  EXPECT_LE(report.hap.extended_hap,
            static_cast<double>(report.hap.distinct_functions));
}

TEST(FleetEngineTest, WarmImageCacheSpeedsLaterBoots) {
  // The first boot per platform image pulls it from NVMe through the host
  // page cache; the storm's later tenants must see hits, not misses.
  const auto report = run_fresh(Scenario::coldstart_storm(64));
  EXPECT_GT(report.page_cache_hits, report.page_cache_misses);
  EXPECT_GT(report.nvme_bytes_read, 0u);
}

TEST(FleetEngineTest, ContentionStretchesTheStorm) {
  // Same tenants arriving in a tight storm vs spread over 10 s: the storm's
  // peak CPU demand is higher and its boots slower or equal.
  auto storm = Scenario::coldstart_storm(64);
  auto spread = storm;
  spread.arrival = ArrivalPattern::kRamp;
  spread.arrival_window = sim::seconds(10);
  const auto storm_report = run_fresh(storm);
  const auto spread_report = run_fresh(spread);
  EXPECT_GT(storm_report.peak_cpu_demand, spread_report.peak_cpu_demand);
  EXPECT_GT(storm_report.peak_active, spread_report.peak_active);
}

// --- Density / KSM --------------------------------------------------------

TEST(FleetEngineTest, DensitySweepFindsTheRamWall) {
  auto sweep = Scenario::density_sweep(256);
  // Shrink the host so the wall is hit quickly in both configurations.
  constexpr std::uint64_t kHostRam = 32ull << 30;
  sweep.arrival_window = sim::millis(200);  // arrivals beat teardowns
  const auto with_ksm = run_fresh(sweep, kHostRam);
  auto no_ksm = sweep;
  no_ksm.enable_ksm = false;
  const auto without_ksm = run_fresh(no_ksm, kHostRam);

  EXPECT_GE(with_ksm.first_oom_tenant, 0);
  EXPECT_GE(without_ksm.first_oom_tenant, 0);
  // KSM stretches density: strictly more tenants fit before the wall.
  EXPECT_GT(with_ksm.admitted, without_ksm.admitted);
  EXPECT_GT(with_ksm.ksm.density_gain, 1.0);
  EXPECT_GT(with_ksm.ksm.shared_fraction, 0.0);
  EXPECT_GT(with_ksm.rejected, 0);
}

TEST(FleetEngineTest, PeakResidentStaysUnderTheCap) {
  auto sweep = Scenario::density_sweep(128);
  sweep.arrival_window = sim::millis(100);
  const auto report = run_fresh(sweep, 24ull << 30);
  EXPECT_LE(report.peak_resident_bytes, 24ull << 30);
  EXPECT_GT(report.peak_resident_bytes, 0u);
}

TEST(FleetEngineTest, MixedFleetRespectsTheCapToo) {
  // Regression: namespace-backed admissions must count the KSM backing
  // pages hypervisor tenants already put on the host, not just the
  // non-KSM resident set.
  auto mix = Scenario::steady_state_mix(64);
  mix.arrival = ArrivalPattern::kStorm;  // arrivals beat teardowns
  mix.arrival_window = sim::millis(50);
  const auto report = run_fresh(mix, 8ull << 30);
  EXPECT_LE(report.peak_resident_bytes, 8ull << 30);
  EXPECT_GT(report.rejected, 0);  // the small cap must actually bind
}

TEST(FleetEngineTest, HypervisorBackedClassification) {
  using platforms::PlatformId;
  EXPECT_TRUE(fleet::is_hypervisor_backed(PlatformId::kQemuKvm));
  EXPECT_TRUE(fleet::is_hypervisor_backed(PlatformId::kFirecracker));
  EXPECT_TRUE(fleet::is_hypervisor_backed(PlatformId::kOsvFirecracker));
  EXPECT_FALSE(fleet::is_hypervisor_backed(PlatformId::kDocker));
  EXPECT_FALSE(fleet::is_hypervisor_backed(PlatformId::kGvisor));
  EXPECT_FALSE(fleet::is_hypervisor_backed(PlatformId::kNative));
}

// --- Determinism ----------------------------------------------------------

TEST(FleetDeterminismTest, SameSeedSameScenarioByteIdenticalReport) {
  for (const auto& s :
       {Scenario::coldstart_storm(32), Scenario::steady_state_mix(24)}) {
    const auto a = run_fresh(s);
    const auto b = run_fresh(s);
    EXPECT_EQ(a.to_text(), b.to_text()) << s.name;
  }
}

TEST(FleetDeterminismTest, DifferentSeedDifferentReport) {
  auto s = Scenario::coldstart_storm(32);
  const auto a = run_fresh(s);
  s.seed ^= 0xDEAD'BEEFull;
  const auto b = run_fresh(s);
  EXPECT_NE(a.to_text(), b.to_text());
}

TEST(FleetDeterminismTest, ReportExposesBootCdfs) {
  const auto report = run_fresh(Scenario::coldstart_storm(32));
  const auto cdfs = report.boot_cdfs();
  EXPECT_GE(cdfs.size(), 3u);
  for (const auto& series : cdfs) {
    EXPECT_FALSE(series.samples_ms.empty());
  }
}

// --- Density-latch arrival short-circuit ----------------------------------

/// Golden for a density sweep whose stop_at_first_oom latch trips mid-run,
/// captured from the pre-PR-5 engine (commit d1d449a), which still paid one
/// queue event per post-latch arrival. The lazily-seeded engine must
/// produce byte-identical report text (admitted/rejected counts, makespan
/// ending at the last arrival, every table row) while the bulk-rejected
/// tail no longer costs per-tenant events.
constexpr const char* kLatchedDensitySweep =
    R"GOLD(scenario: density-sweep (seed 17433000876150095873)
tenants: 197 admitted, 203 rejected, 197 completed; peak active 197
makespan: 3614.06 ms; peak CPU demand 3.08x host threads; peak resident 255.6 GiB
density wall: tenant 197 was the first to not fit in host RAM
ksm: 201728 pages advised -> 119080 backing (gain 1.69x, 41.2% cross-tenant shared)
host page cache: 6389760 hits, 65536 misses; nvme read 256.0 MiB
fleet HAP: 290 distinct host fns, 4385480 invocations, extended HAP 32.71

platform     tenants  boot p50 (ms)  boot p90 (ms)  boot p99 (ms)  phase p50 (ms)
---------------------------------------------------------------------------------
firecracker  89       544.54         970.40         1160.96        840.38        
qemu-kvm     108      409.33         737.33         838.65         781.12        
)GOLD";

Scenario latched_density_sweep() {
  auto sweep = Scenario::density_sweep(400);
  // Arrivals must outpace teardowns or the density wall is never reached.
  sweep.arrival_window = sim::millis(250);
  return sweep;
}

TEST(FleetLatchTest, LatchedSweepReportMatchesEagerEngine) {
  const auto report = run_fresh(latched_density_sweep());
  EXPECT_EQ(report.to_text(), kLatchedDensitySweep);
}

TEST(FleetLatchTest, PostLatchArrivalsStopPayingEventCost) {
  const auto report = run_fresh(latched_density_sweep());
  EXPECT_EQ(report.admitted, 197);
  EXPECT_EQ(report.rejected, 203);
  // The eager engine paid one event per post-latch arrival; the
  // bulk-rejected tail must not scale events with the tenant count.
  // 197 admitted * 6 lifecycle events (arrival, boot physics, boot done,
  // two phases, teardown) + the one walk-rejected arrival that tripped
  // the latch.
  EXPECT_EQ(report.events_processed, 1183u);
  // Scaling the tenant count only grows the bulk-rejected tail: admitted
  // and events stay flat while rejected absorbs the growth.
  auto bigger = latched_density_sweep();
  bigger.tenant_count = 800;
  const auto big = run_fresh(bigger);
  EXPECT_EQ(big.admitted, 197);
  EXPECT_EQ(big.events_processed, 1183u);
  EXPECT_EQ(big.rejected, 603);
}

// --- Boot SLO verdict -----------------------------------------------------

TEST(FleetSloTest, VerdictLineGatedOnBudget) {
  const auto s = Scenario::coldstart_storm(32);
  const auto without = run_fresh(s);
  EXPECT_EQ(without.boot_slo_ms, 0);
  EXPECT_EQ(without.to_text().find("boot SLO"), std::string::npos);

  auto with_budget = s;
  with_budget.boot_slo_ms = sim::millis(400);
  const auto with = run_fresh(with_budget);
  EXPECT_NE(with.to_text().find("boot SLO"), std::string::npos);
  // The verdict line is the only difference: removing it restores the
  // budget-less rendering byte for byte.
  std::string text = with.to_text();
  const auto pos = text.find("boot SLO");
  const auto eol = text.find('\n', pos);
  text.erase(pos, eol - pos + 1);
  EXPECT_EQ(text, without.to_text());
}

TEST(FleetSloTest, FractionCountsBootsWithinBudget) {
  auto s = Scenario::coldstart_storm(32);
  s.boot_slo_ms = sim::millis(400);
  const auto report = run_fresh(s);
  const double fraction = report.boot_slo_fraction();
  EXPECT_GT(fraction, 0.0);
  EXPECT_LT(fraction, 1.0);  // firecracker's boots blow a 400 ms budget
  // Cross-check against the retained samples.
  int within = 0;
  for (const double ms : report.cluster_boot_ms.values()) {
    within += ms <= 400.0 ? 1 : 0;
  }
  EXPECT_DOUBLE_EQ(fraction, static_cast<double>(within) /
                                 static_cast<double>(
                                     report.cluster_boot_ms.size()));
  // A generous budget puts every boot inside it.
  s.boot_slo_ms = sim::seconds(3600);
  EXPECT_DOUBLE_EQ(run_fresh(s).boot_slo_fraction(), 1.0);
}

}  // namespace
