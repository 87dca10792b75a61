// Tests for syscall-program workloads (src/fleet/program.h): the builtin
// program catalog and op-class mapping, scenario validation for program
// mixes, per-op SLO verdict math, exact interpreter op accounting, the
// program-vs-statistical ftrace differential (programs light up per-syscall
// kernel functions a statistical control never touches), partition faults
// stalling in-flight program network ops, crash recovery restarting a
// victim's program from the top, and byte-identity of program runs across
// repeats.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/host_system.h"
#include "fleet/chaos.h"
#include "fleet/cluster.h"
#include "fleet/engine.h"
#include "fleet/placement.h"
#include "fleet/program.h"
#include "fleet/report.h"
#include "fleet/scenario.h"
#include "hostk/host_kernel.h"
#include "report_digest.h"

namespace {

using fleet::builtin_program;
using fleet::builtin_program_count;
using fleet::Cluster;
using fleet::Fault;
using fleet::FleetReport;
using fleet::kProgImagePull;
using fleet::kProgKvServer;
using fleet::kProgLogWriter;
using fleet::kProgMmapAnalytics;
using fleet::op_class;
using fleet::op_is_write;
using fleet::op_vcpus;
using fleet::OpClass;
using fleet::ProgramOp;
using fleet::Scenario;
using fleet::SyscallProgram;
using hostk::Syscall;
using testutil::digest;

FleetReport run_cluster(const Scenario& s) {
  Cluster cluster(s.cluster);
  return cluster.run(s);
}

std::size_t cls_index(OpClass c) { return static_cast<std::size_t>(c); }

/// program_storm with the mix narrowed to exactly one builtin program.
Scenario one_program(int tenants, int hosts, int program) {
  Scenario s = Scenario::program_storm(tenants, hosts);
  s.program_mix = {{program, 1.0}};
  return s;
}

// --- Builtin catalog and op vocabulary ---------------------------------------

TEST(ProgramTest, BuiltinCatalogShipsFourPrograms) {
  ASSERT_EQ(builtin_program_count(), 4);
  for (int i = 0; i < builtin_program_count(); ++i) {
    const SyscallProgram& p = builtin_program(i);
    EXPECT_FALSE(p.name.empty());
    EXPECT_FALSE(p.ops.empty());
    EXPECT_GE(p.loops, 1);
  }
  EXPECT_EQ(builtin_program(kProgKvServer).name, "kv-server");
  EXPECT_EQ(builtin_program(kProgImagePull).name, "image-pull-serve");
  EXPECT_EQ(builtin_program(kProgLogWriter).name, "log-writer");
  EXPECT_EQ(builtin_program(kProgMmapAnalytics).name, "mmap-analytics");
  EXPECT_THROW(builtin_program(-1), std::out_of_range);
  EXPECT_THROW(builtin_program(builtin_program_count()), std::out_of_range);
}

TEST(ProgramTest, OpClassMapsSyscallsToDeviceClasses) {
  EXPECT_EQ(op_class(Syscall::kPread64), OpClass::kFile);
  EXPECT_EQ(op_class(Syscall::kOpenat), OpClass::kFile);
  EXPECT_EQ(op_class(Syscall::kMmap), OpClass::kMemory);
  EXPECT_EQ(op_class(Syscall::kSendto), OpClass::kNetwork);
  EXPECT_EQ(op_class(Syscall::kEpollWait), OpClass::kNetwork);
  EXPECT_EQ(op_class(Syscall::kFsync), OpClass::kSync);
  EXPECT_EQ(op_class(Syscall::kClockGettime), OpClass::kOther);
  EXPECT_TRUE(op_is_write(Syscall::kWrite));
  EXPECT_TRUE(op_is_write(Syscall::kPwrite64));
  EXPECT_FALSE(op_is_write(Syscall::kRead));
  // Memory ops pin a full core while faulting; device-bound classes spend
  // most of their wall time waiting.
  EXPECT_DOUBLE_EQ(op_vcpus(OpClass::kMemory), 1.0);
  EXPECT_DOUBLE_EQ(op_vcpus(OpClass::kFile), 0.5);
  EXPECT_DOUBLE_EQ(op_vcpus(OpClass::kNetwork), 0.5);
}

// --- Scenario validation -----------------------------------------------------

TEST(ProgramTest, RunRejectsNonPositivePhasesPerTenant) {
  Scenario s = Scenario::cluster_storm(4, 2, fleet::PlacementKind::kLeastLoaded);
  s.phases_per_tenant = 0;
  EXPECT_THROW(run_cluster(s), std::invalid_argument);
  s.phases_per_tenant = -3;
  EXPECT_THROW(run_cluster(s), std::invalid_argument);
}

TEST(ProgramTest, RunRejectsMalformedProgramMix) {
  Scenario s = Scenario::program_storm(4, 2);
  s.program_mix = {{builtin_program_count(), 1.0}};  // unknown program
  EXPECT_THROW(run_cluster(s), std::invalid_argument);
  s.program_mix = {{-2, 1.0}};  // below the -1 statistical sentinel
  EXPECT_THROW(run_cluster(s), std::invalid_argument);
  s.program_mix = {{kProgKvServer, 0.0}};  // weightless share
  EXPECT_THROW(run_cluster(s), std::invalid_argument);
  s.program_mix = {{kProgKvServer, std::nan("")}};
  EXPECT_THROW(run_cluster(s), std::invalid_argument);
  s.program_mix = {{kProgKvServer, std::numeric_limits<double>::infinity()}};
  EXPECT_THROW(run_cluster(s), std::invalid_argument);
  s.program_mix = {{-1, 1.0}};  // all-statistical sentinel mix is legal
  EXPECT_NO_THROW(run_cluster(s));
}

// --- SLO verdict math --------------------------------------------------------

TEST(ProgramTest, ProgramSloVerdictComparesPerClassP99) {
  FleetReport r;
  EXPECT_TRUE(r.program_slo_pass());  // no budget declared
  r.op_slo_ms = sim::millis(5);
  auto& p = r.by_program["x"];
  p.program = "x";
  p.by_class[cls_index(OpClass::kFile)].ops = 1;
  p.by_class[cls_index(OpClass::kFile)].op_ms.add(1.0);
  EXPECT_TRUE(r.program_slo_pass());
  // One class over budget fails the whole fleet verdict.
  p.by_class[cls_index(OpClass::kSync)].ops = 1;
  p.by_class[cls_index(OpClass::kSync)].op_ms.add(9.0);
  EXPECT_FALSE(r.program_slo_pass());
  r.op_slo_ms = 0;  // clearing the budget clears the verdict
  EXPECT_TRUE(r.program_slo_pass());
}

// --- Interpreter accounting --------------------------------------------------

TEST(ProgramTest, InterpreterOpCountsAreExact) {
  // log-writer: 32 loops of (kWrite repeat 4, kFsync repeat 1). One tenant,
  // one host: file ops 32*4, sync ops 32*1, one latency sample per event.
  const FleetReport r = run_cluster(one_program(1, 1, kProgLogWriter));
  EXPECT_EQ(r.completed, 1);
  ASSERT_EQ(r.by_program.size(), 1u);
  const auto& p = r.by_program.at("log-writer");
  EXPECT_EQ(p.tenants, 1);
  EXPECT_EQ(p.by_class[cls_index(OpClass::kFile)].ops, 128u);
  EXPECT_EQ(p.by_class[cls_index(OpClass::kSync)].ops, 32u);
  EXPECT_EQ(p.by_class[cls_index(OpClass::kFile)].op_ms.size(), 32u);
  EXPECT_EQ(p.by_class[cls_index(OpClass::kSync)].op_ms.size(), 32u);
  EXPECT_EQ(p.by_class[cls_index(OpClass::kNetwork)].ops, 0u);
}

TEST(ProgramTest, MixSplitsPopulationBetweenProgramsAndStatisticalShare) {
  const Scenario s = Scenario::program_storm(200, 2);
  const FleetReport r = run_cluster(s);
  EXPECT_EQ(r.admitted, 200);
  int program_tenants = 0;
  for (const auto& [name, p] : r.by_program) {
    (void)name;
    program_tenants += p.tenants;
  }
  // The -1 share keeps a statistical control population in the same run.
  EXPECT_GT(program_tenants, 0);
  EXPECT_LT(program_tenants, r.admitted);
  const std::string text = r.to_text();
  EXPECT_NE(text.find("programs: "), std::string::npos);
  EXPECT_NE(text.find("kv-server"), std::string::npos);
  EXPECT_NE(text.find("program SLO: per-op p99 within"), std::string::npos);
  EXPECT_NE(text.find("[SLO PASS]"), std::string::npos);
}

TEST(ProgramTest, StatisticalRunsRenderNoProgramSection) {
  Scenario s = Scenario::program_storm(40, 2);
  s.program_mix.clear();
  s.op_slo_ms = 0;
  const FleetReport r = run_cluster(s);
  EXPECT_TRUE(r.by_program.empty());
  EXPECT_EQ(r.to_text().find("programs: "), std::string::npos);
}

// --- Ftrace differential -----------------------------------------------------

TEST(ProgramTest, LogWriterLightsUpFsyncKernelFunctionsOverControl) {
  // Same storm twice: once with every tenant interpreting log-writer, once
  // purely statistical (kCpu phases never fsync). The program run must pump
  // the fsync expansion (ext4_sync_file et al.) far past whatever the boot
  // traces alone contribute.
  Scenario prog = one_program(40, 1, kProgLogWriter);
  Scenario ctrl = prog;
  ctrl.program_mix.clear();
  ctrl.op_slo_ms = 0;

  Cluster pc(prog.cluster);
  pc.run(prog);
  auto& pk = pc.host(0).kernel();
  const auto fid = pk.registry().id_of("ext4_sync_file");
  const std::uint64_t prog_hits = pk.ftrace().count_of(fid);

  Cluster cc(ctrl.cluster);
  cc.run(ctrl);
  auto& ck = cc.host(0).kernel();
  const std::uint64_t ctrl_hits =
      ck.ftrace().count_of(ck.registry().id_of("ext4_sync_file"));

  EXPECT_GT(prog_hits, 0u);
  // 40 tenants x 32 fsync ops each dwarf the control's boot-trace residue.
  EXPECT_GT(prog_hits, ctrl_hits + 1000u);
}

// --- Chaos composition -------------------------------------------------------

TEST(ProgramTest, PartitionStallsInFlightProgramNetworkOps) {
  // kv-server tenants hammer the NIC; a partition over host 0 freezes wire
  // progress, so stalled completions show up in the chaos rollup and the
  // network op tail stretches past the fault-free control's.
  Scenario s = one_program(150, 2, kProgKvServer);
  fleet::ClusterTopology::Rack r0{"r0", {0, 1}};
  s.cluster.racks = {r0};
  Fault part;
  part.kind = Fault::Kind::kPartition;
  part.time = sim::millis(120);
  part.rack = "r0";
  part.duration = sim::millis(30);
  s.faults.push_back(part);

  Scenario ctrl = one_program(150, 2, kProgKvServer);
  ctrl.cluster.racks = {r0};

  const FleetReport faulted = run_cluster(s);
  const FleetReport control = run_cluster(ctrl);
  EXPECT_GT(faulted.nic_stalls, 0);
  EXPECT_EQ(digest(faulted.to_text()), "d343722a458c5c97");
  EXPECT_EQ(faulted.events_processed, 18602u);
  const auto& fp = faulted.by_program.at("kv-server");
  const auto& cp = control.by_program.at("kv-server");
  const std::size_t net = cls_index(OpClass::kNetwork);
  ASSERT_FALSE(fp.by_class[net].op_ms.empty());
  EXPECT_GT(fp.by_class[net].op_ms.percentile(99.9),
            cp.by_class[net].op_ms.percentile(99.9));
  // Non-network classes never touch the wire: the partition must not stall
  // them (kv-server's file reads stay cache/NVMe-bound).
  EXPECT_EQ(fp.by_class[cls_index(OpClass::kFile)].ops,
            cp.by_class[cls_index(OpClass::kFile)].ops);
}

TEST(ProgramTest, CrashRestartsVictimProgramsFromTheTop) {
  Scenario s = one_program(120, 3, kProgLogWriter);
  Fault crash;
  crash.kind = Fault::Kind::kCrash;
  crash.time = sim::millis(150);
  crash.host = 0;
  crash.restart_delay = sim::millis(25);
  s.faults.push_back(crash);

  const FleetReport r = run_cluster(s);
  EXPECT_GT(r.crash_victims, 0);
  EXPECT_GT(r.crash_readmitted, 0);
  const auto& p = r.by_program.at("log-writer");
  // Distinct tenants, not boots: crash re-admissions inflate `admitted`
  // (one admission per life) but a victim that reboots counts once — it
  // loses its program cursor, not its identity.
  EXPECT_GT(r.admitted, 120);
  EXPECT_EQ(p.tenants, 120);
  // Re-run from the top means every completed tenant produced one full
  // pass (32 fsync events) in its final life, and pre-crash partial runs
  // only add samples on top of that floor.
  EXPECT_GE(p.by_class[cls_index(OpClass::kSync)].op_ms.size(),
            static_cast<std::size_t>(r.completed) * 32u);
  // And the whole composition stays reproducible.
  EXPECT_EQ(run_cluster(s).to_text(), r.to_text());
}

// --- Determinism -------------------------------------------------------------

TEST(ProgramTest, ProgramStormIsByteIdenticalAcrossRuns) {
  const Scenario s = Scenario::program_storm(300, 4);
  const std::string first = run_cluster(s).to_text();
  EXPECT_EQ(run_cluster(s).to_text(), first);
}

}  // namespace
