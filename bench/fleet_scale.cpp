// Fleet engine scaling benchmark: the repo's recorded perf trajectory.
//
// Runs a fixed set of shapes — the 10k-tenant single-host cold-start storm
// and density sweep, the cluster storm at 10k x 4 and 100k x 64 hosts under
// every placement policy, the two-platform retry-on-reject storm against
// single-shot placement, the autoscaled storm against its fixed topology,
// the crash-recovery and program storms, the degrade storm with and
// without per-op retries, and the 4-cell federation storm under every
// routing policy — and writes one record per run to BENCH_fleet_scale.json
// (see README "Performance"):
//
//   {block, config, repeats, wall_ms {median, min, max}, events,
//    events_per_sec, counters {...}, behavior {...}}
//
// `block` names the scenario and `config` the knobs that tell its runs
// apart; (block, config) is the record's identity. `counters` holds exact
// counts from the report and `behavior` its simulated-time results. Each
// record is measured kRepeats times against fresh hosts (wall_ms covers
// building them plus the run), and the bench exits 1 unless every repeat
// renders the same to_text() and processes the same number of events —
// determinism is checked on every bench run, not just in unit tests.
//
// The differentials the fleet's claims rest on (retries beat no retries,
// retry-on-reject beats single-shot, autoscaling beats a fixed topology)
// are declared in the file's `assertions` list as comparisons between
// record fields. tools/check_perf_trajectory.py gates a fresh file against
// the committed one: record by record on wall clock and events/sec, and on
// every assertion.
//
// Usage: fleet_scale [--out PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/host_system.h"
#include "fleet/cluster.h"
#include "fleet/engine.h"
#include "fleet/federation.h"
#include "fleet/placement.h"
#include "fleet/report.h"
#include "fleet/scenario.h"
#include "stats/table.h"

namespace {

/// Runs per record: the median of three shrugs off one noisy run.
constexpr int kRepeats = 3;

/// A flat JSON object, rendered as fields are added.
class Obj {
 public:
  Obj& count(const char* key, long long v) {
    return raw(key, std::to_string(v));
  }
  Obj& real(const char* key, double v, int decimals) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return raw(key, buf);
  }
  Obj& text(const char* key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  Obj& flag(const char* key, bool v) { return raw(key, v ? "true" : "false"); }
  Obj& raw(const char* key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ", \"") + std::string(key) + "\": " + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct Record {
  std::string block;
  std::string config;  // JSON object
  std::vector<double> wall_ms;  // sorted, one per repeat
  std::uint64_t events = 0;
  std::string counters;  // JSON object
  std::string behavior;  // JSON object

  double median_ms() const { return wall_ms[wall_ms.size() / 2]; }
  double events_per_sec() const {
    return median_ms() > 0.0 ? static_cast<double>(events) / (median_ms() / 1e3)
                             : 0.0;
  }
};

double pct(const stats::SampleSet& s, double p) {
  return s.empty() ? 0.0 : s.percentile(p);
}

/// Counters and behavior of a cluster or single-host run. Like the
/// report's own rendering, the autoscale, recovery, program and degrade
/// fields appear only when the run produced them.
void describe(const fleet::FleetReport& r, Record* rec) {
  Obj counters;
  Obj behavior;
  counters.count("admitted", r.admitted)
      .count("tenants_admitted", r.tenants_admitted())
      .count("rejected", r.rejected)
      .count("completed", r.completed)
      .count("spills", r.spills)
      .count("ksm_shared_pages", static_cast<long long>(r.ksm.shared_pages))
      .count("ksm_backing_pages", static_cast<long long>(r.ksm.backing_pages));
  behavior.real("boot_p50_ms", pct(r.cluster_boot_ms, 50), 2)
      .real("boot_p99_ms", pct(r.cluster_boot_ms, 99), 2)
      .real("makespan_ms", sim::to_millis(r.makespan), 2);
  if (!r.autoscale_timeline.empty()) {
    int outs = 0;
    int ins = 0;
    int adds = 0;
    int peak = 0;
    for (const auto& a : r.autoscale_timeline) {
      outs += a.action == "scale-out" ? 1 : 0;
      ins += a.action == "scale-in" ? 1 : 0;
      adds += a.action == "add" ? 1 : 0;
      peak = std::max(peak, a.live_hosts);
    }
    // The starting topology: every host the run had, minus those it added.
    peak = std::max(peak, static_cast<int>(r.hosts.size()) - outs - adds);
    counters.count("final_hosts", r.final_host_count)
        .count("peak_hosts", peak)
        .count("scale_outs", outs)
        .count("scale_ins", ins)
        .count("drain_migrations", r.drain_migrations);
  }
  if (!r.recovery.empty()) {
    counters.count("crash_victims", r.crash_victims)
        .count("crash_readmitted", r.crash_readmitted)
        .count("crash_lost", r.crash_lost);
    behavior.real("readmission_fraction", r.readmission_fraction(), 4)
        .real("replace_p50_ms", pct(r.replace_ms, 50), 2)
        .real("replace_p99_ms", pct(r.replace_ms, 99), 2);
  }
  if (!r.by_program.empty()) {
    long long tenants = 0;
    long long ops = 0;
    double worst_p99 = 0.0;
    for (const auto& [name, prog] : r.by_program) {
      (void)name;
      tenants += prog.tenants;
      for (const auto& cls : prog.by_class) {
        ops += static_cast<long long>(cls.ops);
        worst_p99 = std::max(worst_p99, pct(cls.op_ms, 99));
      }
    }
    counters.count("program_tenants", tenants)
        .count("total_ops", ops)
        .count("op_retries", r.op_retries)
        .count("op_give_ups", r.op_give_ups);
    behavior.real("op_p99_worst_ms", worst_p99, 3)
        .flag("slo_pass", r.program_slo_pass());
  }
  if (!r.degraded.empty()) {
    long long affected = 0;
    double worst_added = 0.0;
    for (const auto& v : r.degraded) {
      affected += v.affected;
      worst_added = std::max(worst_added, pct(v.added_ms, 99));
    }
    counters.count("degrade_faults", static_cast<long long>(r.degraded.size()))
        .count("affected", affected);
    behavior.real("added_p99_worst_ms", worst_added, 3);
  }
  rec->counters = counters.str();
  rec->behavior = behavior.str();
}

void describe(const fleet::FederationReport& r, Record* rec) {
  rec->counters = Obj().count("admitted", r.admitted)
                      .count("rejected", r.rejected)
                      .count("completed", r.completed)
                      .count("spills", r.spills)
                      .str();
  rec->behavior =
      Obj().real("makespan_ms", sim::to_millis(r.makespan), 2).str();
}

/// Times `run` (which builds fresh hosts and runs one scenario on them)
/// kRepeats times; exits 1 unless every repeat's report is identical.
template <typename Run>
Record measure(const std::string& block, const std::string& config, Run run) {
  Record rec;
  rec.block = block;
  rec.config = config;
  std::string text;
  for (int i = 0; i < kRepeats; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto report = run();
    const auto t1 = std::chrono::steady_clock::now();
    rec.wall_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    // to_text() deliberately omits events_processed (compatibility
    // surface), so compare it explicitly too.
    if (i == 0) {
      text = report.to_text();
      rec.events = report.events_processed;
      describe(report, &rec);
    } else if (report.to_text() != text ||
               report.events_processed != rec.events) {
      std::fprintf(stderr,
                   "fleet_scale: DETERMINISM VIOLATION — %s %s produced "
                   "different reports across fresh runs\n",
                   block.c_str(), config.c_str());
      std::exit(1);
    }
  }
  std::sort(rec.wall_ms.begin(), rec.wall_ms.end());
  return rec;
}

std::string to_json(const Record& r) {
  const std::string wall = Obj().real("median", r.median_ms(), 1)
                               .real("min", r.wall_ms.front(), 1)
                               .real("max", r.wall_ms.back(), 1)
                               .str();
  return Obj().text("block", r.block)
      .raw("config", r.config)
      .count("repeats", static_cast<long long>(r.wall_ms.size()))
      .raw("wall_ms", wall)
      .count("events", static_cast<long long>(r.events))
      .real("events_per_sec", r.events_per_sec(), 0)
      .raw("counters", r.counters)
      .raw("behavior", r.behavior)
      .str();
}

/// A record field, named by its dotted path ("counters.admitted").
std::string field(const Record& r, const char* path) {
  return Obj().text("block", r.block)
      .raw("config", r.config)
      .text("value", path)
      .str();
}

std::string assertion(const std::string& left, const char* op,
                      const std::string& right) {
  return Obj().raw("left", left).text("op", op).raw("right", right).str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_fleet_scale.json";
  if (argc == 3 && std::strcmp(argv[1], "--out") == 0) {
    out = argv[2];
  } else if (argc != 1) {
    std::fprintf(stderr, "usage: fleet_scale [--out PATH]\n");
    return 2;
  }

  benchutil::print_header(
      "fleet scale",
      "Engine scaling trajectory: every committed fleet shape, each run\n"
      "three times against fresh hosts, real wall-clock and events/sec.");

  // A deque keeps references to earlier records valid as more are added.
  std::deque<Record> records;
  std::vector<std::string> assertions;
  const auto add = [&](Record r) -> const Record& {
    records.push_back(std::move(r));
    return records.back();
  };
  const auto shape = [](const fleet::Scenario& s) {
    return Obj().count("hosts", s.cluster.host_count)
        .count("tenants", s.tenant_count);
  };
  const auto cluster = [&](const std::string& block, const fleet::Scenario& s,
                           const Obj& config) -> const Record& {
    return add(measure(block, config.str(), [&] {
      return fleet::Cluster(s.cluster).run(s);
    }));
  };

  // The 1k sizes finish in single-digit milliseconds, where timer jitter
  // outweighs the signal, so single-host runs are recorded at 10k only.
  auto sweep = fleet::Scenario::density_sweep(10000);
  // Arrivals must outpace teardowns or the density wall is never reached.
  sweep.arrival_window = sim::millis(250);
  for (const auto& s : {fleet::Scenario::coldstart_storm(10000), sweep}) {
    add(measure(s.name, shape(s).str(), [&] {
      core::HostSystem host;  // fresh host: cold page cache, pristine ftrace
      return fleet::FleetEngine(host).run(s);
    }));
  }

  for (const auto& [tenants, hosts] :
       {std::pair{10000, 4}, std::pair{100000, 64}}) {
    for (const auto kind : fleet::all_placement_kinds()) {
      const auto s = fleet::Scenario::cluster_storm(tenants, hosts, kind);
      cluster(s.name, s,
              shape(s).text("policy", fleet::placement_kind_name(kind)));
    }
  }

  // Retry-on-reject against single-shot placement (SingleShotPolicy walks
  // only its inner policy's first choice): two platforms under
  // ksm-affinity build two pile hosts, and only the retry walk spills onto
  // the idle rest.
  auto piles = fleet::Scenario::cluster_storm(
      10000, 4, fleet::PlacementKind::kKsmAffinity);
  piles.platform_mix = {{platforms::PlatformId::kFirecracker, 0.5},
                        {platforms::PlatformId::kQemuKvm, 0.5}};
  const Record& retry_walk =
      cluster("two-platform-storm", piles,
              shape(piles).text("placement", "retry-on-reject"));
  const Record& single_shot = add(measure(
      "two-platform-storm",
      shape(piles).text("placement", "single-shot").str(), [&] {
        fleet::Cluster c(piles.cluster);
        std::vector<core::HostSystem*> hosts;
        for (int i = 0; i < c.host_count(); ++i) {
          hosts.push_back(&c.host(i));
        }
        fleet::SingleShotPolicy policy(
            fleet::make_placement(fleet::PlacementKind::kKsmAffinity));
        return fleet::FleetEngine(hosts, &policy).run(piles);
      }));
  assertions.push_back(assertion(field(retry_walk, "counters.admitted"), ">",
                                 field(single_shot, "counters.admitted")));

  const auto grow = fleet::Scenario::autoscale_storm(10000, 4, 8);
  auto fixed = grow;
  fixed.autoscale.enabled = false;
  const Record& autoscaled =
      cluster(grow.name, grow,
              shape(grow).count("max_hosts", 8).text("autoscale", "on"));
  const Record& fixed_topology =
      cluster(grow.name, fixed,
              shape(fixed).count("max_hosts", 8).text("autoscale", "off"));
  assertions.push_back(
      assertion(field(autoscaled, "counters.tenants_admitted"), ">",
                field(fixed_topology, "counters.tenants_admitted")));

  const auto crash = fleet::Scenario::crash_recovery(10000, 4, 8);
  cluster(crash.name, crash, shape(crash).count("max_hosts", 8));
  const auto programs = fleet::Scenario::program_storm(10000, 4);
  cluster(programs.name, programs, shape(programs));

  // The committed 180 x 3 shape: its fault windows are tuned against the
  // storm's boot/program phase boundary. The control keeps the fault
  // schedule and drops only per-op retry/backoff.
  const auto degrade = fleet::Scenario::degrade_storm(180, 3);
  auto no_retry = degrade;
  no_retry.op_max_retries = 0;
  no_retry.op_backoff_base_ms = 0;
  const Record& retries =
      cluster(degrade.name, degrade, shape(degrade).text("retries", "on"));
  const Record& control =
      cluster(degrade.name, no_retry, shape(no_retry).text("retries", "off"));
  assertions.push_back(
      assertion(field(retries, "counters.op_retries"), ">", "0"));
  for (const char* path : {"counters.op_give_ups", "counters.crash_lost"}) {
    assertions.push_back(
        assertion(field(retries, path), "<", field(control, path)));
  }

  for (const fleet::RoutingKind kind : fleet::all_routing_kinds()) {
    const auto fs =
        fleet::FederatedScenario::federation_storm(20000, 4, 4, kind);
    add(measure(
        fs.traffic.name,
        Obj().count("cells", 4)
            .count("hosts_per_cell", 4)
            .count("tenants", 20000)
            .text("routing", fleet::routing_kind_name(kind))
            .str(),
        [&] { return fleet::Federation(fs.topology).run(fs); }));
  }

  stats::Table table({"block", "config", "wall p50 (ms)", "min", "max",
                      "events", "events/sec"});
  for (const Record& r : records) {
    table.add_row({r.block, r.config, stats::Table::num(r.median_ms(), 1),
                   stats::Table::num(r.wall_ms.front(), 1),
                   stats::Table::num(r.wall_ms.back(), 1),
                   std::to_string(r.events),
                   stats::Table::num(r.events_per_sec(), 0)});
  }
  std::printf("%s\n", table.to_text().c_str());
  std::printf("determinism: %zu records x %d fresh runs each, reports "
              "identical\n",
              records.size(), kRepeats);

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "fleet_scale: cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"fleet_scale\",\n"
               "  \"schema_version\": 10,\n"
               "  \"unit\": {\"wall_ms\": \"milliseconds\", "
               "\"events_per_sec\": \"simulator events per second\"},\n"
               "  \"records\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::fprintf(f, "    %s%s\n", to_json(records[i]).c_str(),
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"assertions\": [\n");
  for (std::size_t i = 0; i < assertions.size(); ++i) {
    std::fprintf(f, "    %s%s\n", assertions[i].c_str(),
                 i + 1 < assertions.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("(json written to %s)\n", out.c_str());
  return 0;
}
