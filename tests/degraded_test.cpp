// Tests for the degraded-mode fault family and the per-op retry/backoff
// engine (src/fleet/chaos.h degrade windows, src/fleet/engine.cpp
// issue_program_op): stall-stretch window math, KSM-unmerge resident-spike
// exactness under the peak audit, partial-partition pair attribution, the
// retry-vs-no-retry graceful-degradation differential on the degrade_storm
// builtin, crash-during-boot accounting, up-front validation of degrade
// shapes and retry knobs, and byte-identity of degraded runs across double
// runs.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/host_system.h"
#include "fleet/chaos.h"
#include "fleet/cluster.h"
#include "fleet/engine.h"
#include "fleet/federation.h"
#include "fleet/placement.h"
#include "fleet/report.h"
#include "fleet/scenario.h"
#include "report_digest.h"
#include "sim/time.h"

namespace {

using fleet::build_windows;
using fleet::Cluster;
using fleet::Fault;
using fleet::FaultWindow;
using fleet::FederatedScenario;
using fleet::Federation;
using fleet::FederationReport;
using fleet::FleetEngine;
using fleet::FleetReport;
using fleet::ResolvedFault;
using fleet::Scenario;
using fleet::stretched_completion;
using fleet::validate;
using testutil::digest;

FleetReport run_cluster(const Scenario& s) {
  Cluster cluster(s.cluster);
  return cluster.run(s);
}

Fault disk_degrade_at(sim::Nanos time, int host, double multiplier,
                      sim::Nanos duration) {
  Fault f;
  f.kind = Fault::Kind::kDiskDegrade;
  f.time = time;
  f.host = host;
  f.degrade = multiplier;
  f.duration = duration;
  return f;
}

Fault mem_pressure_at(sim::Nanos time, int host, sim::Nanos duration) {
  Fault f;
  f.kind = Fault::Kind::kMemPressure;
  f.time = time;
  f.host = host;
  f.duration = duration;
  return f;
}

Fault partial_partition_at(sim::Nanos time, int host, int peer,
                           sim::Nanos duration) {
  Fault f;
  f.kind = Fault::Kind::kPartialPartition;
  f.time = time;
  f.host = host;
  f.peer = peer;
  f.duration = duration;
  return f;
}

// --- Degraded and per-pair window math --------------------------------------

TEST(DegradedTest, DegradedCompletionStretchesByDegradedShare) {
  const std::vector<FaultWindow> w = {{100, 200, 4.0, 7}};
  int fault = -1;
  // 100 units undegraded to t=100; the window [100,200) completes only
  // 100/4 = 25 units, the remaining 25 finish after the heal at 225.
  EXPECT_EQ(stretched_completion(w, 0, 150, -1, &fault), 225);
  EXPECT_EQ(fault, 7);
  // Finishing inside the window: the last 10 units run at 4x.
  EXPECT_EQ(stretched_completion(w, 0, 110, -1, &fault), 140);
  EXPECT_EQ(fault, 7);
  // Entirely before the window: untouched, no attribution.
  EXPECT_EQ(stretched_completion(w, 0, 100, -1, &fault), 100);
  EXPECT_EQ(fault, -1);
  // Entirely after the window: untouched.
  EXPECT_EQ(stretched_completion(w, 250, 40, -1, &fault), 290);
  EXPECT_EQ(fault, -1);
  // No windows: degenerate identity.
  EXPECT_EQ(stretched_completion({}, 5, 10), 15);
}

TEST(DegradedTest, BuildDegradeWindowsSplitsOverlapsWorstWins) {
  ResolvedFault a;
  a.id = 0;
  a.kind = Fault::Kind::kDiskDegrade;
  a.time = 0;
  a.duration = 100;
  a.degrade = 2.0;
  a.hosts = {0};
  ResolvedFault b;
  b.id = 1;
  b.kind = Fault::Kind::kDiskDegrade;
  b.time = 50;
  b.duration = 100;  // [50, 150) x6 overlaps [0, 100) x2
  b.degrade = 6.0;
  b.hosts = {0};
  const auto windows = build_windows({a, b}, 2, Fault::Kind::kDiskDegrade);
  ASSERT_EQ(windows.size(), 2u);
  ASSERT_EQ(windows[0].size(), 2u);
  EXPECT_EQ(windows[0][0].start, 0);
  EXPECT_EQ(windows[0][0].end, 50);
  EXPECT_EQ(windows[0][0].multiplier, 2.0);
  EXPECT_EQ(windows[0][0].fault, 0);
  // Where they overlap the worst multiplier wins, and the x6 pieces merge.
  EXPECT_EQ(windows[0][1].start, 50);
  EXPECT_EQ(windows[0][1].end, 150);
  EXPECT_EQ(windows[0][1].multiplier, 6.0);
  EXPECT_EQ(windows[0][1].fault, 1);
  EXPECT_TRUE(windows[1].empty());
}

TEST(DegradedTest, BuildDegradeWindowsEmptyWithoutDiskDegrades) {
  ResolvedFault crash;
  crash.kind = Fault::Kind::kCrash;
  crash.hosts = {0};
  EXPECT_TRUE(build_windows({crash}, 4, Fault::Kind::kDiskDegrade).empty());
  EXPECT_TRUE(build_windows({}, 4, Fault::Kind::kDiskDegrade).empty());
}

TEST(DegradedTest, PairStalledCompletionFreezesMatchingPairOnly) {
  const std::vector<FaultWindow> w = {
      {100, 200, std::numeric_limits<double>::infinity(), /*fault=*/3,
       /*peer=*/1}};
  int fault = -1;
  // Drawn peer 1: 50 units to the cut, frozen to 200, the rest end at 250.
  EXPECT_EQ(stretched_completion(w, 50, 100, 1, &fault), 250);
  EXPECT_EQ(fault, 3);
  // A different far end never notices the cut.
  EXPECT_EQ(stretched_completion(w, 50, 100, 2, &fault), 150);
  EXPECT_EQ(fault, -1);
  // Finishes exactly when the cut opens: not stalled.
  EXPECT_EQ(stretched_completion(w, 50, 50, 1, &fault), 100);
  EXPECT_EQ(fault, -1);
}

TEST(DegradedTest, PairWindowsAreSymmetric) {
  ResolvedFault f;
  f.id = 0;
  f.kind = Fault::Kind::kPartialPartition;
  f.time = 10;
  f.duration = 20;
  f.hosts = {0};
  f.peer = 2;
  const auto windows = build_windows({f}, 3, Fault::Kind::kPartialPartition);
  ASSERT_EQ(windows.size(), 3u);
  ASSERT_EQ(windows[0].size(), 1u);
  EXPECT_EQ(windows[0][0].peer, 2);
  ASSERT_EQ(windows[2].size(), 1u);
  EXPECT_EQ(windows[2][0].peer, 0);
  EXPECT_TRUE(windows[1].empty());
}

// --- Up-front validation -----------------------------------------------------

TEST(DegradedTest, ValidateRejectsMalformedDegradeShapes) {
  Scenario s = Scenario::program_storm(16, 2);
  // Disk degrade multiplier below 1 would *speed the disk up*.
  s.faults = {disk_degrade_at(sim::millis(10), 0, 0.5, sim::millis(20))};
  EXPECT_THROW(validate(s, 2), std::invalid_argument);
  // Non-positive degrade window.
  s.faults = {disk_degrade_at(sim::millis(10), 0, 4.0, 0)};
  EXPECT_THROW(validate(s, 2), std::invalid_argument);
  s.faults = {mem_pressure_at(sim::millis(10), 0, -1)};
  EXPECT_THROW(validate(s, 2), std::invalid_argument);
  // A window whose end is past INT64_MAX nanoseconds.
  s.faults = {disk_degrade_at(std::numeric_limits<sim::Nanos>::max() - 5, 0,
                              4.0, sim::millis(20))};
  EXPECT_THROW(validate(s, 2), std::invalid_argument);
  EXPECT_THROW(run_cluster(s), std::invalid_argument);
  // A partial partition pairing a host with itself cuts nothing.
  s.faults = {
      partial_partition_at(sim::millis(10), 1, 1, sim::millis(20))};
  EXPECT_THROW(validate(s, 2), std::invalid_argument);
  // Peer outside the initial topology.
  s.faults = {
      partial_partition_at(sim::millis(10), 0, 5, sim::millis(20))};
  EXPECT_THROW(validate(s, 2), std::invalid_argument);
  s.faults = {
      partial_partition_at(sim::millis(10), 0, -1, sim::millis(20))};
  EXPECT_THROW(validate(s, 2), std::invalid_argument);
}

TEST(DegradedTest, RunRejectsMalformedRetryKnobs) {
  Scenario s = Scenario::program_storm(16, 2);
  s.op_max_retries = -1;
  EXPECT_THROW(run_cluster(s), std::invalid_argument);
  // Retries without a backoff base or without an SLO to retry against.
  s.op_max_retries = 2;
  s.op_backoff_base_ms = 0;
  EXPECT_THROW(run_cluster(s), std::invalid_argument);
  s.op_backoff_base_ms = sim::millis(1);
  s.op_slo_ms = 0;
  EXPECT_THROW(run_cluster(s), std::invalid_argument);
}

// --- Disk degrade ------------------------------------------------------------

TEST(DegradedTest, DiskDegradeStretchesOpsWithoutKillingAnyone) {
  // The window spans the whole run so host 0's disk-bound critical path
  // (log-writer fsyncs, cache-missing reads) is stretched end to end.
  Scenario s = Scenario::program_storm(96, 3);
  s.faults = {
      disk_degrade_at(sim::millis(5), 0, 8.0, sim::millis(2000))};
  Scenario control = Scenario::program_storm(96, 3);
  const FleetReport r = run_cluster(s);
  const FleetReport c = run_cluster(control);

  ASSERT_EQ(r.degraded.size(), 1u);
  const auto& v = r.degraded[0];
  EXPECT_EQ(v.kind, "disk-degrade");
  EXPECT_EQ(v.multiplier, 8.0);
  EXPECT_EQ(v.hosts, std::vector<int>{0});
  // Disk-touching issues on host 0 were disturbed and sampled.
  EXPECT_GT(v.affected, 0);
  EXPECT_FALSE(v.added_ms.empty());
  EXPECT_GT(v.added_ms.percentile(99.0), 0.0);
  // Degraded, not dead: nobody crashes, nobody is lost.
  EXPECT_EQ(r.crash_victims, 0);
  EXPECT_EQ(r.tenants_admitted(), c.tenants_admitted());
  // Slower disks only ever stretch completions.
  EXPECT_GT(r.makespan, c.makespan);
  // The control renders no degraded section at all.
  EXPECT_EQ(c.to_text().find("degraded:"), std::string::npos);
  EXPECT_NE(r.to_text().find("degraded:"), std::string::npos);
  EXPECT_NE(r.to_text().find("disk-degrade"), std::string::npos);
}

// --- Memory pressure ---------------------------------------------------------

TEST(DegradedTest, MemPressureSpikesResidentAndAuditsExactly) {
  // The KSM unmerge storm re-expands every merged page; the incremental
  // fleet counters must track the spike (and the window-end re-merge)
  // exactly — set_peak_audit latches any drift.
  Scenario s = Scenario::program_storm(160, 3);
  s.faults = {mem_pressure_at(sim::millis(60), 1, sim::millis(50))};
  Cluster cluster(s.cluster);
  const auto policy = fleet::make_placement(s.placement);
  std::vector<core::HostSystem*> hosts;
  for (int i = 0; i < cluster.host_count(); ++i) {
    hosts.push_back(&cluster.host(i));
  }
  FleetEngine engine(hosts, policy.get(), &cluster);
  engine.set_peak_audit(true);
  const FleetReport r = engine.run(s);
  EXPECT_TRUE(engine.peak_audit_ok());
  ASSERT_EQ(r.degraded.size(), 1u);
  EXPECT_EQ(r.degraded[0].kind, "mem-pressure");
  EXPECT_GT(r.degraded[0].resident_spike_bytes, 0u);
  EXPECT_GT(r.degraded[0].affected, 0);
  EXPECT_NE(r.to_text().find("resident spike"), std::string::npos);
}

// --- Partial partition -------------------------------------------------------

TEST(DegradedTest, PartialPartitionStallsOnlyTheCutPair) {
  Scenario s = Scenario::program_storm(120, 4);
  s.faults = {
      partial_partition_at(sim::millis(10), 0, 1, sim::millis(150))};
  const FleetReport r = run_cluster(s);
  ASSERT_EQ(r.degraded.size(), 1u);
  const auto& v = r.degraded[0];
  EXPECT_EQ(v.kind, "partial-partition");
  EXPECT_EQ(v.peer, 1);
  EXPECT_GT(v.affected, 0);
  EXPECT_FALSE(v.added_ms.empty());
  // Only the cut pair stalls: program network ops land their stall on the
  // issuing host, and hosts 2/3 never border the cut.
  EXPECT_GT(r.hosts[0].nic_stalls + r.hosts[1].nic_stalls, 0);
  EXPECT_EQ(r.hosts[2].nic_stalls, 0);
  EXPECT_EQ(r.hosts[3].nic_stalls, 0);
  EXPECT_EQ(r.crash_victims, 0);
  EXPECT_NE(r.to_text().find("partial-partition"), std::string::npos);
}

// --- Retry/backoff: graceful degradation instead of binary failure -----------

TEST(DegradedTest, RetryBackoffBeatsNoRetryUnderDegradeStorm) {
  // The committed differential: under the same fault schedule, per-op
  // retry/backoff (network re-issues redraw their peer and route around
  // the partial partition; disk re-issues land after the degrade window)
  // yields strictly fewer op SLO give-ups and strictly fewer permanently
  // lost tenants than the no-retry control.
  const Scenario s = Scenario::degrade_storm(180, 3);
  Scenario control = s;
  control.op_max_retries = 0;
  control.op_backoff_base_ms = 0;
  const FleetReport r = run_cluster(s);
  const FleetReport c = run_cluster(control);

  EXPECT_GT(r.op_retries, 0);
  EXPECT_EQ(c.op_retries, 0);
  EXPECT_GT(c.op_give_ups, 0);
  EXPECT_LT(r.op_give_ups, c.op_give_ups);
  EXPECT_GT(c.crash_lost, 0);
  EXPECT_LT(r.crash_lost, c.crash_lost);
  // Both runs carry the full degraded ledger.
  ASSERT_EQ(r.degraded.size(), 3u);
  ASSERT_EQ(c.degraded.size(), 3u);
  EXPECT_NE(r.to_text().find("degraded:"), std::string::npos);
  EXPECT_NE(r.to_text().find("op retries"), std::string::npos);
}

TEST(DegradedTest, RetryAccountingStaysSilentWithoutFaultsOrKnobs) {
  // program_storm sets an op SLO but neither degrade faults nor retry
  // knobs: the degraded ledger must stay empty and unrendered, keeping
  // pre-degrade goldens byte-identical.
  const FleetReport r = run_cluster(Scenario::program_storm(96, 3));
  EXPECT_TRUE(r.degraded.empty());
  EXPECT_EQ(r.op_retries, 0);
  EXPECT_EQ(r.op_give_ups, 0);
  EXPECT_EQ(r.to_text().find("degraded:"), std::string::npos);
}

// --- Crash during boot -------------------------------------------------------

TEST(DegradedTest, CrashDuringBootLosesPartialBoots) {
  // Crash the host mid-ramp, while plenty of tenants are still between
  // admission and kBootDone: their partial boots are lost and counted.
  Scenario s = Scenario::program_storm(160, 3);
  Fault crash;
  crash.kind = Fault::Kind::kCrash;
  crash.time = sim::millis(8);
  crash.host = 0;
  s.faults = {crash};
  const FleetReport r = run_cluster(s);
  ASSERT_EQ(r.recovery.size(), 1u);
  const auto& v = r.recovery[0];
  EXPECT_GT(v.victims, 0);
  EXPECT_GT(v.boots_lost, 0);
  EXPECT_LE(v.boots_lost, v.victims);
  EXPECT_EQ(r.boots_lost, v.boots_lost);
  EXPECT_NE(r.to_text().find("partial boots lost"), std::string::npos);
}

// --- Federation composition --------------------------------------------------

TEST(DegradedTest, FederationComposesDegradeStormsWithCellOutage) {
  // Every cell runs the full degrade storm; cell 0 additionally goes dark
  // mid-run. Degrade verdicts, retries and the outage re-route must
  // compose, and the whole thing must stay byte-reproducible.
  const Scenario base = Scenario::degrade_storm(120, 3);
  FederatedScenario fs = FederatedScenario::from_scenario(
      base, 2, fleet::RoutingKind::kLeastLoadedCell);
  fleet::CellOutage outage;
  outage.cell = 0;
  outage.time = sim::millis(120);
  fs.outages = {outage};
  Federation fed(fs.topology);
  const FederationReport r = fed.run(fs);
  const std::string text = r.to_text();
  EXPECT_NE(text.find("degraded:"), std::string::npos);
  EXPECT_NE(text.find("cell-outage"), std::string::npos);
  EXPECT_EQ(digest(text), "8ee7f9f9e219da1d");
  EXPECT_EQ(r.events_processed, 7614u);
  Federation fed2(fs.topology);
  EXPECT_EQ(fed2.run(fs).to_text(), text);
}

// --- Pinned reports, one per degrade shape -----------------------------------
//
// Each run pins a whole report (digest and event count), so a change in
// how a disk-degrade, pair-cut or partition window stretches an op shows
// up here and not only as a difference between two runs of the same build.
// Captured with gcc 12, identical in Release and Debug.

TEST(DegradePinTest, DegradeStormAndItsVerdictIndices) {
  const FleetReport r = run_cluster(Scenario::degrade_storm(180, 3));
  EXPECT_EQ(digest(r.to_text()), "78ee0380b0ebe5b3");
  EXPECT_EQ(r.events_processed, 11269u);
  // Fault ids follow time order: disk 0 and pair 1 (both at 150 ms), mem
  // pressure 2, crash 3. Degrade faults own DegradeVerdicts in id order;
  // the crash owns the only RecoveryVerdict, so recovery[0] is fault 3.
  ASSERT_EQ(r.degraded.size(), 3u);
  for (std::size_t i = 0; i < r.degraded.size(); ++i) {
    EXPECT_EQ(r.degraded[i].fault, static_cast<int>(i));
  }
  EXPECT_EQ(r.degraded[0].kind, "disk-degrade");
  EXPECT_EQ(r.degraded[1].kind, "partial-partition");
  EXPECT_EQ(r.degraded[2].kind, "mem-pressure");
  ASSERT_EQ(r.recovery.size(), 1u);
  EXPECT_EQ(r.recovery[0].fault, 3);
  // lost_to_fault is a verdict index, not a fault id.
  int lost = 0;
  for (const fleet::TenantOutcome& t : r.tenants) {
    if (t.lost_to_fault >= 0) {
      EXPECT_EQ(t.lost_to_fault, 0) << "tenant " << t.id;
      ++lost;
    }
  }
  EXPECT_EQ(lost, 6);
  EXPECT_EQ(r.crash_lost, 6);
}

TEST(DegradePinTest, DegradeStormWithoutRetries) {
  Scenario s = Scenario::degrade_storm(180, 3);
  s.op_max_retries = 0;
  s.op_backoff_base_ms = 0;
  const FleetReport r = run_cluster(s);
  EXPECT_EQ(digest(r.to_text()), "6e541045ee0f81aa");
  EXPECT_EQ(r.events_processed, 11138u);
}

TEST(DegradePinTest, OverlappingDiskDegradesOnOneHost) {
  // [40, 190) x3 and [100, 300) x7 overlap on host 0: the x7 window must
  // win where both are open.
  Scenario s = Scenario::program_storm(120, 3);
  s.faults = {
      disk_degrade_at(sim::millis(40), 0, 3.0, sim::millis(150)),
      disk_degrade_at(sim::millis(100), 0, 7.0, sim::millis(200)),
  };
  const FleetReport r = run_cluster(s);
  EXPECT_EQ(digest(r.to_text()), "77351570ed7b1563");
  EXPECT_EQ(r.events_processed, 8337u);
}

TEST(DegradePinTest, EveryWindowKindOnOneHostWithRetries) {
  // Host 0 carries a partition, two overlapping cuts to peer 1 and a disk
  // degrade, all open around 140 ms, while retries re-draw peers.
  Scenario s = Scenario::program_storm(160, 4);
  s.op_max_retries = 2;
  s.op_backoff_base_ms = sim::millis(1);
  Fault part;
  part.kind = Fault::Kind::kPartition;
  part.time = sim::millis(120);
  part.host = 0;
  part.duration = sim::millis(60);
  s.faults = {
      part,
      partial_partition_at(sim::millis(100), 0, 1, sim::millis(150)),
      partial_partition_at(sim::millis(140), 0, 1, sim::millis(150)),
      disk_degrade_at(sim::millis(110), 0, 5.0, sim::millis(90)),
  };
  const FleetReport r = run_cluster(s);
  EXPECT_GT(r.nic_stalls, 0);
  EXPECT_EQ(digest(r.to_text()), "6859f6333c531828");
  EXPECT_EQ(r.events_processed, 10530u);
}

// --- Determinism -------------------------------------------------------------

TEST(DegradePinTest, MemPressurePairCutAndThreeDiskDegrades) {
  // Every degrade-family kind across four hosts, each window the default
  // 50 ms and each disk degrade the default 4x: a mem-pressure spike on
  // host 1, a cut between hosts 0 and 1, then disk degrades on hosts 1, 3
  // and 2.
  Scenario s = Scenario::program_storm(120, 4);
  const sim::Nanos window = sim::millis(50);
  s.faults = {mem_pressure_at(338'318, 1, window),
              partial_partition_at(56'342'588, 0, 1, window),
              disk_degrade_at(103'022'581, 1, 4.0, window),
              disk_degrade_at(107'378'086, 3, 4.0, window),
              disk_degrade_at(146'646'902, 2, 4.0, window)};
  const FleetReport r = run_cluster(s);
  EXPECT_EQ(r.degraded.size(), 5u);
  EXPECT_EQ(digest(r.to_text()), "615b645393fd414a");
  EXPECT_EQ(r.events_processed, 8339u);
  EXPECT_EQ(run_cluster(s).to_text(), r.to_text());
}

TEST(DegradedTest, DegradeStormIsByteIdenticalAcrossRuns) {
  for (const bool retries_on : {true, false}) {
    Scenario s = Scenario::degrade_storm(180, 3);
    if (!retries_on) {
      s.op_max_retries = 0;
      s.op_backoff_base_ms = 0;
    }
    const std::string first = run_cluster(s).to_text();
    EXPECT_EQ(run_cluster(s).to_text(), first) << "retries_on=" << retries_on;
  }
}

}  // namespace
