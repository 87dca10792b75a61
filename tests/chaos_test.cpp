// Tests for the fault-injection subsystem (src/fleet/chaos.h): the
// crash-vs-graceful-drain differential (a crash loses the host's KSM
// sharing and page cache, a drain does not), rack-correlated crash
// determinism, partition windows stalling NIC-bound completions,
// recovery-verdict arithmetic, up-front scenario validation, the
// drain/crash same-instant race hardening, and byte-identity of every
// chaos builtin across runs.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/host_system.h"
#include "fleet/chaos.h"
#include "fleet/cluster.h"
#include "fleet/engine.h"
#include "fleet/placement.h"
#include "fleet/report.h"
#include "fleet/scenario.h"
#include "report_digest.h"

namespace {

using fleet::build_windows;
using fleet::Cluster;
using fleet::Fault;
using fleet::FaultWindow;
using fleet::FleetEngine;
using fleet::FleetReport;
using fleet::HostEvent;
using fleet::PlacementKind;
using fleet::resolve_faults;
using fleet::ResolvedFault;
using fleet::Scenario;
using fleet::stretched_completion;
using fleet::validate;
using testutil::digest;

FleetReport run_cluster(const Scenario& s) {
  Cluster cluster(s.cluster);
  return cluster.run(s);
}

/// A mid-size storm with phases long enough that a fault around 60 ms
/// catches plenty of tenants mid-flight.
Scenario chaos_storm(int tenants, int hosts) {
  Scenario s = Scenario::cluster_storm(tenants, hosts,
                                       PlacementKind::kLeastPressure);
  s.arrival = fleet::ArrivalPattern::kRamp;
  s.arrival_window = sim::millis(200);
  s.phases_per_tenant = 2;
  s.mean_phase_duration = sim::millis(120);
  return s;
}

Fault crash_at(sim::Nanos time, int host) {
  Fault f;
  f.kind = Fault::Kind::kCrash;
  f.time = time;
  f.host = host;
  return f;
}

// --- Frozen-window math (partitions) ----------------------------------------

TEST(ChaosTest, StalledCompletionStretchesByExactOverlap) {
  const std::vector<FaultWindow> w = {{10, 20}};
  // Starts at 5, runs 5 of its 10 units, freezes for [10,20), finishes the
  // remaining 5 at 25.
  EXPECT_EQ(stretched_completion(w, 5, 10), 25);
  // Starting inside the window: all progress waits for the heal.
  EXPECT_EQ(stretched_completion(w, 12, 3), 23);
  // Finished before the window opens: untouched.
  EXPECT_EQ(stretched_completion(w, 0, 10), 10);
  // Starting after the window closed: untouched.
  EXPECT_EQ(stretched_completion(w, 25, 10), 35);
  // No windows at all: degenerate identity.
  EXPECT_EQ(stretched_completion({}, 7, 10), 17);
}

TEST(ChaosTest, StalledCompletionWalksMultipleWindows) {
  const std::vector<FaultWindow> w = {{10, 20}, {30, 40}};
  // 5 units to the first window, frozen to 20, 10 more units to 30, frozen
  // to 40, the last 5 end at 45.
  EXPECT_EQ(stretched_completion(w, 5, 20), 45);
  // Ends exactly when the second window opens: not stalled by it.
  EXPECT_EQ(stretched_completion(w, 5, 15), 30);
}

TEST(ChaosTest, BuildPartitionWindowsSortsAndCoalesces) {
  ResolvedFault a;
  a.id = 1;
  a.kind = Fault::Kind::kPartition;
  a.time = 30;
  a.duration = 20;
  a.hosts = {0};
  ResolvedFault b;
  b.id = 0;
  b.kind = Fault::Kind::kPartition;
  b.time = 10;
  b.duration = 25;  // [10, 35) overlaps [30, 50): one window [10, 50)
  b.hosts = {0};
  const auto windows = build_windows({a, b}, 2, Fault::Kind::kPartition);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_TRUE(windows[1].empty());
  // Two faults stay two disjoint frozen pieces, sorted by start, that
  // complete every span exactly like the coalesced window [10, 50).
  ASSERT_FALSE(windows[0].empty());
  EXPECT_EQ(windows[0].front().start, 10);
  EXPECT_EQ(windows[0].back().end, 50);
  const std::vector<FaultWindow> coalesced = {{10, 50}};
  for (sim::Nanos start = 0; start <= 60; start += 5) {
    for (sim::Nanos work = 0; work <= 40; work += 5) {
      EXPECT_EQ(stretched_completion(windows[0], start, work),
                stretched_completion(coalesced, start, work))
          << "start " << start << " work " << work;
    }
  }
  // Pieces that share a fault id merge back into a single window.
  a.id = 0;
  const auto merged = build_windows({a, b}, 2, Fault::Kind::kPartition);
  ASSERT_EQ(merged[0].size(), 1u);
  EXPECT_EQ(merged[0][0].start, 10);
  EXPECT_EQ(merged[0][0].end, 50);
}

TEST(ChaosTest, BuildPartitionWindowsEmptyWithoutPartitions) {
  ResolvedFault crash;
  crash.kind = Fault::Kind::kCrash;
  crash.hosts = {0};
  EXPECT_TRUE(build_windows({crash}, 4, Fault::Kind::kPartition).empty());
  EXPECT_TRUE(build_windows({}, 4, Fault::Kind::kPartition).empty());
}

// --- Up-front validation -----------------------------------------------------

TEST(ChaosTest, ValidateRejectsMalformedFaults) {
  Scenario s = chaos_storm(8, 2);
  // Negative fault time.
  s.faults = {crash_at(-1, 0)};
  EXPECT_THROW(validate(s, 2), std::invalid_argument);
  // Host outside the initial topology.
  s.faults = {crash_at(sim::millis(10), 2)};
  EXPECT_THROW(validate(s, 2), std::invalid_argument);
  s.faults = {crash_at(sim::millis(10), -1)};
  EXPECT_THROW(validate(s, 2), std::invalid_argument);
  // Unknown rack name.
  s.faults = {crash_at(sim::millis(10), 0)};
  s.faults[0].rack = "nope";
  EXPECT_THROW(validate(s, 2), std::invalid_argument);
  // Non-positive partition duration.
  s.faults = {crash_at(sim::millis(10), 0)};
  s.faults[0].kind = Fault::Kind::kPartition;
  s.faults[0].duration = 0;
  EXPECT_THROW(validate(s, 2), std::invalid_argument);
  // Negative restart shape.
  s.faults = {crash_at(sim::millis(10), 0)};
  s.faults[0].restart_delay = -1;
  EXPECT_THROW(validate(s, 2), std::invalid_argument);
  // A partition end or a latest re-arrival past INT64_MAX nanoseconds, and
  // a partition ending exactly at INT64_MAX: work stretched past it would
  // wrap.
  const sim::Nanos max = std::numeric_limits<sim::Nanos>::max();
  std::vector<Fault> wrapping(4, crash_at(sim::millis(10), 0));
  wrapping[0].kind = Fault::Kind::kPartition;
  wrapping[0].duration = max;
  wrapping[1].restart_delay = max;
  wrapping[2].restart_jitter = max;
  wrapping[3].kind = Fault::Kind::kPartition;
  wrapping[3].duration = max - sim::millis(10);
  for (const Fault& f : wrapping) {
    s.faults = {f};
    EXPECT_THROW(validate(s, 2), std::invalid_argument);
    EXPECT_THROW(run_cluster(s), std::invalid_argument);
  }
}

TEST(ChaosTest, ValidateRejectsMalformedRacks) {
  Scenario s = chaos_storm(8, 2);
  s.faults = {crash_at(sim::millis(10), 0)};
  s.cluster.racks = {{"", {0}}};
  EXPECT_THROW(validate(s, 2), std::invalid_argument);
  s.cluster.racks = {{"r0", {}}};
  EXPECT_THROW(validate(s, 2), std::invalid_argument);
  s.cluster.racks = {{"r0", {0, 5}}};  // member outside the topology
  EXPECT_THROW(validate(s, 2), std::invalid_argument);
  // Racks are checked whether or not a fault names them.
  s.faults.clear();
  s.cluster.racks = {{"r0", {0, 99}}};
  EXPECT_THROW(validate(s, 2), std::invalid_argument);
  EXPECT_THROW(run_cluster(s), std::invalid_argument);
}

TEST(ChaosTest, ResolveFaultsSortsByTimeAndAssignsIds) {
  Scenario s = chaos_storm(8, 4);
  s.faults = {crash_at(sim::millis(50), 1), crash_at(sim::millis(10), 2)};
  const auto resolved = resolve_faults(s, 4);
  ASSERT_EQ(resolved.size(), 2u);
  EXPECT_EQ(resolved[0].id, 0);
  EXPECT_EQ(resolved[0].time, sim::millis(10));
  EXPECT_EQ(resolved[0].hosts, std::vector<int>{2});
  EXPECT_EQ(resolved[1].id, 1);
  EXPECT_EQ(resolved[1].time, sim::millis(50));
}

TEST(ChaosTest, ValidateRejectsBadHostEvents) {
  Scenario s = chaos_storm(8, 2);
  HostEvent he;
  he.kind = HostEvent::Kind::kDrain;
  he.time = -1;
  s.host_events = {he};
  EXPECT_THROW(validate(s, 2), std::invalid_argument);
  he.time = sim::millis(10);
  he.host = -2;
  s.host_events = {he};
  EXPECT_THROW(validate(s, 2), std::invalid_argument);
  // A fixed 2-host topology can never contain host index 7.
  he.host = 7;
  s.host_events = {he};
  EXPECT_THROW(validate(s, 2), std::invalid_argument);
  // ...unless the autoscaler can grow the fleet past it.
  s.autoscale.enabled = true;
  s.autoscale.max_hosts = 16;
  EXPECT_NO_THROW(validate(s, 2));
  // An engine run surfaces the same validation up front.
  s.autoscale.enabled = false;
  EXPECT_THROW(run_cluster(s), std::invalid_argument);
}

TEST(ChaosTest, RunRejectsOutOfRangeFaultHost) {
  Scenario s = chaos_storm(8, 2);
  s.faults = {crash_at(sim::millis(10), 5)};
  EXPECT_THROW(run_cluster(s), std::invalid_argument);
}

// --- Crash vs graceful drain -------------------------------------------------

TEST(ChaosTest, CrashLosesPageCacheAndKsmDrainDoesNot) {
  // Same storm, same target host, same instant: one run crashes host 0,
  // the other drains it gracefully. The drained host keeps its warm page
  // cache; the crashed host's cache and KSM stable tree die with it.
  Scenario crash = chaos_storm(160, 3);
  crash.faults = {crash_at(sim::millis(60), 0)};

  Scenario drain = chaos_storm(160, 3);
  HostEvent he;
  he.kind = HostEvent::Kind::kDrain;
  he.time = sim::millis(60);
  he.host = 0;
  drain.host_events = {he};

  Cluster crashed_cluster(crash.cluster);
  const FleetReport cr = crashed_cluster.run(crash);
  Cluster drained_cluster(drain.cluster);
  const FleetReport dr = drained_cluster.run(drain);

  // Host-state differential, observed directly on the host models.
  EXPECT_EQ(crashed_cluster.host(0).page_cache().size_pages(), 0u);
  EXPECT_GT(drained_cluster.host(0).page_cache().size_pages(), 0u);

  // Report differential: markers, recovery section, migration accounting.
  ASSERT_GE(cr.hosts.size(), 1u);
  EXPECT_TRUE(cr.hosts[0].crashed);
  EXPECT_FALSE(cr.hosts[0].drained);
  EXPECT_TRUE(dr.hosts[0].drained);
  EXPECT_FALSE(dr.hosts[0].crashed);
  EXPECT_NE(cr.to_text().find("(! = host crashed mid-run)"), std::string::npos);
  EXPECT_NE(dr.to_text().find("(* = host was drained mid-run)"),
            std::string::npos);

  ASSERT_EQ(cr.recovery.size(), 1u);
  EXPECT_GT(cr.crash_victims, 0);
  EXPECT_TRUE(dr.recovery.empty());
  EXPECT_EQ(dr.to_text().find("chaos:"), std::string::npos);
  EXPECT_GT(dr.drain_migrations, 0);
  EXPECT_EQ(cr.drain_migrations, 0);

  // Victims re-arrive no earlier than the restart delay, and only count as
  // re-placed once their re-boot completes — every sample sits past it.
  ASSERT_FALSE(cr.replace_ms.empty());
  EXPECT_EQ(cr.replace_ms.fraction_below(
                sim::to_millis(crash.faults[0].restart_delay)),
            0.0);
}

TEST(ChaosTest, IncrementalFleetCountersSurviveACrash) {
  // A crash drops a whole shard's resident set and KSM tree wholesale;
  // the incremental fleet counters must track that exactly (set_peak_audit
  // latches any drift from the re-summed reference).
  Scenario s = chaos_storm(200, 3);
  s.faults = {crash_at(sim::millis(60), 1)};
  Cluster cluster(s.cluster);
  const auto policy = fleet::make_placement(s.placement);
  FleetEngine engine(cluster, *policy);
  engine.set_peak_audit(true);
  const FleetReport r = engine.run(s);
  EXPECT_TRUE(engine.peak_audit_ok());
  EXPECT_GT(r.crash_victims, 0);
}

TEST(ChaosTest, CrashingTheOnlyHostLosesUnplacedTenants) {
  // With no survivors there is nowhere to re-place: every victim (and
  // every later arrival) is rejected fleet-level, and the verdict records
  // them as permanently lost.
  Scenario s = Scenario::coldstart_storm(40);
  s.arrival = fleet::ArrivalPattern::kRamp;
  s.arrival_window = sim::millis(100);
  s.phases_per_tenant = 2;
  s.mean_phase_duration = sim::millis(200);
  s.faults = {crash_at(sim::millis(50), 0)};
  const FleetReport r = run_cluster(s);
  ASSERT_EQ(r.recovery.size(), 1u);
  EXPECT_GT(r.crash_victims, 0);
  EXPECT_EQ(r.crash_readmitted, 0);
  EXPECT_EQ(r.crash_lost, r.crash_victims);
  EXPECT_EQ(r.readmission_fraction(), 0.0);
  EXPECT_TRUE(r.replace_ms.empty());
  EXPECT_GE(r.rejected, r.crash_victims);
}

// --- Rack-correlated faults --------------------------------------------------

TEST(ChaosTest, RackCrashHitsEveryMemberAtOneInstant) {
  const Scenario s = Scenario::rack_outage(240, 6);
  const FleetReport r = run_cluster(s);
  ASSERT_EQ(r.recovery.size(), 1u);
  const auto& v = r.recovery[0];
  EXPECT_EQ(v.kind, "crash");
  EXPECT_EQ(v.rack, "r0");
  EXPECT_EQ(v.hosts, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(v.time, sim::millis(100));
  for (const int h : {0, 1, 2}) {
    EXPECT_TRUE(r.hosts[static_cast<std::size_t>(h)].crashed) << h;
  }
  for (const int h : {3, 4, 5}) {
    EXPECT_FALSE(r.hosts[static_cast<std::size_t>(h)].crashed) << h;
  }
  EXPECT_GT(v.victims, 0);
  EXPECT_EQ(v.victims, v.readmitted + v.lost);
}

// --- Partitions --------------------------------------------------------------

TEST(ChaosTest, PartitionStallsNicPhases) {
  const Scenario s = Scenario::partition_storm(240, 4);
  Scenario control = s;
  control.faults.clear();
  const FleetReport r = run_cluster(s);
  const FleetReport c = run_cluster(control);

  EXPECT_GT(r.nic_stalls, 0);
  EXPECT_EQ(c.nic_stalls, 0);
  // Stalls only ever stretch completions, so the partitioned run's
  // makespan can't beat the control's.
  EXPECT_GT(r.makespan, c.makespan);
  ASSERT_EQ(r.recovery.size(), 1u);
  EXPECT_EQ(r.recovery[0].kind, "partition");
  EXPECT_EQ(r.recovery[0].duration, sim::millis(40));
  EXPECT_EQ(r.crash_victims, 0);  // partitions kill nobody
  EXPECT_TRUE(c.recovery.empty());
  // Per-host stall attribution stays on the partitioned rack.
  int partitioned = 0;
  int untouched = 0;
  for (const auto& h : r.hosts) {
    if (h.host <= 1) {
      partitioned += h.nic_stalls;
    } else {
      untouched += h.nic_stalls;
    }
  }
  EXPECT_EQ(partitioned, r.nic_stalls);
  EXPECT_EQ(untouched, 0);
}

// --- Recovery verdict arithmetic --------------------------------------------

TEST(ChaosTest, RecoveryVerdictTotalsAreConsistent) {
  const Scenario s = Scenario::crash_recovery(600, 4, 8);
  const FleetReport r = run_cluster(s);
  ASSERT_EQ(r.recovery.size(), 1u);
  const auto& v = r.recovery[0];
  EXPECT_EQ(v.fault, 0);
  EXPECT_EQ(v.kind, "crash");
  EXPECT_EQ(v.victims, r.crash_victims);
  EXPECT_EQ(v.readmitted, r.crash_readmitted);
  EXPECT_EQ(v.lost, r.crash_lost);
  EXPECT_EQ(v.victims, v.readmitted + v.lost);
  EXPECT_EQ(r.replace_ms.size(), static_cast<std::size_t>(v.readmitted));
  EXPECT_GT(r.readmission_fraction(), 0.0);
  EXPECT_LE(r.readmission_fraction(), 1.0);
  EXPECT_GE(r.replace_ms.percentile(99), r.replace_ms.percentile(50));
  // The headline composition: the crash (not ambient load) trips the
  // watermark — the fault-free control run never scales out.
  bool scaled_out = false;
  for (const auto& a : r.autoscale_timeline) {
    scaled_out = scaled_out || a.action == "scale-out";
  }
  EXPECT_TRUE(scaled_out);
  Scenario control = s;
  control.faults.clear();
  const FleetReport c = run_cluster(control);
  for (const auto& a : c.autoscale_timeline) {
    EXPECT_NE(a.action, "scale-out");
  }
}

TEST(ChaosTest, RenderedRecoverySloAgreesWithVerdict) {
  // Each crash line's "SLO PASS/FAIL" and the "recovery SLO" line must say
  // what slo_pass() and recovery_slo_pass() say, FAIL included.
  const auto npos = std::string::npos;
  const std::string line =
      "recovery SLO: p99 time-to-re-place within 5.00 ms, no loss -> ";
  auto crash = [](int lost, double replace_ms) {
    FleetReport::RecoveryVerdict v;
    v.kind = "crash";
    v.hosts = {0};
    v.victims = lost + 1;
    v.readmitted = 1;
    v.lost = lost;
    v.replace_ms.add(replace_ms);
    return v;
  };
  FleetReport::RecoveryVerdict partition;
  partition.kind = "partition";
  partition.hosts = {1};
  partition.duration = sim::millis(10);

  FleetReport r;
  r.replace_slo_ms = sim::millis(5);
  r.recovery = {crash(0, 1.0), partition};
  std::string text = r.to_text();
  EXPECT_TRUE(r.recovery_slo_pass());
  EXPECT_NE(text.find("; SLO PASS\n"), npos);
  EXPECT_NE(text.find(line + "PASS\n"), npos);

  // A fault over budget, then one that lost a victim, each followed by a
  // fault that passes: both fail their lines and the fleet line.
  r.recovery = {crash(0, 9.0), partition, crash(1, 1.0), crash(0, 1.0)};
  text = r.to_text();
  EXPECT_FALSE(r.recovery[0].slo_pass(r.replace_slo_ms));
  EXPECT_FALSE(r.recovery[2].slo_pass(r.replace_slo_ms));
  EXPECT_FALSE(r.recovery_slo_pass());
  EXPECT_NE(text.find("1 victims, 1 re-admitted, 0 lost; re-place p50 9.00 ms, "
                      "p99 9.00 ms; SLO FAIL\n"),
            npos);
  EXPECT_NE(text.find("2 victims, 1 re-admitted, 1 lost; re-place p50 1.00 ms, "
                      "p99 1.00 ms; SLO FAIL\n"),
            npos);
  EXPECT_NE(text.find(line + "FAIL\n"), npos);
  EXPECT_EQ(text.find(line + "PASS"), npos);
}

// --- Drain/crash same-instant hardening -------------------------------------

TEST(ChaosTest, DrainThenCrashSameInstantIsSafe) {
  // A timed drain and a crash hit host 1 in the same timestamp batch (the
  // drain pops first: host events are queued before fault events). The
  // crash must skip the already-dead host instead of double-releasing its
  // tenants.
  Scenario s = chaos_storm(160, 3);
  HostEvent he;
  he.kind = HostEvent::Kind::kDrain;
  he.time = sim::millis(60);
  he.host = 1;
  s.host_events = {he};
  s.faults = {crash_at(sim::millis(60), 1)};
  const FleetReport r = run_cluster(s);
  EXPECT_TRUE(r.hosts[1].drained);
  EXPECT_FALSE(r.hosts[1].crashed);
  EXPECT_GT(r.drain_migrations, 0);
  ASSERT_EQ(r.recovery.size(), 1u);
  EXPECT_EQ(r.recovery[0].victims, 0);  // nobody left to kill
  EXPECT_TRUE(r.recovery[0].hosts.empty());
  EXPECT_EQ(run_cluster(s).to_text(), r.to_text());
}

TEST(ChaosTest, CrashThenDrainOfDeadHostIsANoOp) {
  // The reverse race: the crash lands first, then a timed drain targets
  // the corpse. drain_shard must refuse; only the crash shows up.
  Scenario s = chaos_storm(160, 3);
  s.faults = {crash_at(sim::millis(60), 1)};
  HostEvent he;
  he.kind = HostEvent::Kind::kDrain;
  he.time = sim::millis(60) + 1;
  he.host = 1;
  s.host_events = {he};
  const FleetReport r = run_cluster(s);
  EXPECT_TRUE(r.hosts[1].crashed);
  EXPECT_FALSE(r.hosts[1].drained);
  EXPECT_EQ(r.drain_migrations, 0);
  for (const auto& a : r.autoscale_timeline) {
    EXPECT_NE(a.action, "drain");
  }
  EXPECT_EQ(run_cluster(s).to_text(), r.to_text());
}

// --- Pinned reports, one per host-wide fault shape ---------------------------
//
// Each run pins a whole report (digest and event count), so a change in
// how a partition window or a rack crash lands shows up here and not only
// as a difference between two runs of the same build. Captured with gcc 12,
// identical in Release and Debug.

TEST(ChaosPinTest, PartitionStorm) {
  const FleetReport r = run_cluster(Scenario::partition_storm(240, 4));
  EXPECT_GT(r.nic_stalls, 0);
  EXPECT_EQ(digest(r.to_text()), "e8376d45b53864e8");
  EXPECT_EQ(r.events_processed, 1442u);
}

TEST(ChaosPinTest, OverlappingPartitionsOnOneHost) {
  // Two more partitions on host 1 overlap the rack window [30, 70) and
  // each other, so its windows must complete as one freeze.
  Scenario s = Scenario::partition_storm(240, 4);
  for (const sim::Nanos at : {sim::millis(50), sim::millis(80)}) {
    Fault part;
    part.kind = Fault::Kind::kPartition;
    part.time = at;
    part.host = 1;
    part.duration = sim::millis(40);
    s.faults.push_back(part);
  }
  const FleetReport r = run_cluster(s);
  EXPECT_EQ(digest(r.to_text()), "9d67bcd5431df434");
  EXPECT_EQ(r.events_processed, 1446u);
}

TEST(ChaosPinTest, RackOutage) {
  const FleetReport r = run_cluster(Scenario::rack_outage(240, 6));
  EXPECT_GT(r.crash_victims, 0);
  EXPECT_EQ(digest(r.to_text()), "3ec550ee7390fefe");
  EXPECT_EQ(r.events_processed, 1326u);
}

TEST(ChaosPinTest, PartitionThenCrashOnOneHost) {
  // Host 1 is partitioned within the first millisecond and crashes at
  // 103 ms, after the window healed. Both faults keep their default
  // shapes: a 50 ms window, 20 ms restart delay and 20 ms jitter.
  Scenario s = chaos_storm(160, 4);
  Fault part;
  part.kind = Fault::Kind::kPartition;
  part.time = 338'318;
  part.host = 1;
  s.faults = {part, crash_at(103'022'581, 1)};
  const FleetReport r = run_cluster(s);
  EXPECT_EQ(r.recovery.size(), 2u);
  EXPECT_EQ(digest(r.to_text()), "56ad1159840db4bb");
  EXPECT_EQ(r.events_processed, 1023u);
  EXPECT_EQ(run_cluster(s).to_text(), r.to_text());
}

// --- Determinism -------------------------------------------------------------

TEST(ChaosTest, ChaosBuiltinsAreByteIdenticalAcrossRuns) {
  const Scenario builtins[] = {
      Scenario::crash_recovery(600, 4, 8),
      Scenario::rack_outage(240, 6),
      Scenario::partition_storm(240, 4),
  };
  for (const Scenario& s : builtins) {
    const std::string first = run_cluster(s).to_text();
    EXPECT_EQ(run_cluster(s).to_text(), first) << s.name;
    EXPECT_NE(first.find("chaos:"), std::string::npos) << s.name;
  }
}

}  // namespace
