#include "fleet/federation.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <unordered_map>

#include "core/host_system.h"
#include "fleet/cluster.h"
#include "fleet/engine.h"

namespace fleet {

namespace {

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return std::string(buf);
}

/// Calls fn(0) .. fn(count - 1) on up to hardware_concurrency() threads
/// that take the next index from one counter, and rethrows the exception
/// of the lowest failing index, if any, once every thread has joined. When
/// one thread would do (a single index, a single core, or no thread could
/// start) the caller runs them all itself and starts no thread.
///
/// Otherwise the caller only waits, so every fn(i) allocates in a worker
/// thread's heap and the caller's heap holds only what the caller owns.
/// When the caller ran one federation cell as well, the cell fragmented
/// that heap, and the caller's next 100k-seed population draw could no
/// longer reuse it: it measured ~30% slower.
template <typename Fn>
void for_each_concurrently(std::size_t count, const Fn& fn) {
  std::vector<std::exception_ptr> failed(count);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < count; i = next++) {
      try {
        fn(i);
      } catch (...) {
        failed[i] = std::current_exception();
      }
    }
  };
  const std::size_t threads =
      std::min<std::size_t>(count, std::thread::hardware_concurrency());
  std::vector<std::thread> workers;
  if (threads > 1) {
    workers.reserve(threads);  // no reallocation once a worker runs
    for (std::size_t t = 0; t < threads; ++t) {
      try {
        workers.emplace_back(work);
      } catch (const std::system_error&) {
        break;  // the workers already running take every index
      }
    }
  }
  if (workers.empty()) {
    work();
  }
  for (std::thread& t : workers) {
    t.join();
  }
  for (const std::exception_ptr& e : failed) {
    if (e) {
      std::rethrow_exception(e);
    }
  }
}

}  // namespace

FederationTopology FederationTopology::uniform(int cells,
                                               const CellSpec& spec) {
  if (cells < 1) {
    throw std::invalid_argument("FederationTopology: cells must be >= 1");
  }
  FederationTopology t;
  t.cells.resize(static_cast<std::size_t>(cells));
  for (int i = 0; i < cells; ++i) {
    t.cells[static_cast<std::size_t>(i)].name = "cell" + std::to_string(i);
    t.cells[static_cast<std::size_t>(i)].spec = spec;
  }
  return t;
}

FederatedScenario FederatedScenario::from_scenario(const Scenario& s,
                                                   int cells,
                                                   RoutingKind routing) {
  FederatedScenario fs;
  fs.traffic = static_cast<const TrafficSpec&>(s);
  fs.routing = routing;
  fs.topology =
      FederationTopology::uniform(cells, static_cast<const CellSpec&>(s));
  return fs;
}

FederatedScenario FederatedScenario::federation_storm(int tenants, int cells,
                                                      int hosts_per_cell,
                                                      RoutingKind routing) {
  const Scenario base = Scenario::cluster_storm(tenants, hosts_per_cell,
                                                PlacementKind::kLeastPressure);
  FederatedScenario fs = from_scenario(base, cells, routing);
  fs.traffic.name = "federation-storm";
  return fs;
}

bool FederationReport::recovery_slo_pass() const {
  if (replace_slo_ms <= 0) {
    return true;
  }
  for (const CellRollup& c : cells) {
    for (const FleetReport::RecoveryVerdict& v : c.report.recovery) {
      // Cell-outage verdicts are judged federation-wide below: in-cell a
      // whole-cell outage always loses every victim.
      if (v.kind != "cell-outage" && !v.slo_pass(replace_slo_ms)) {
        return false;
      }
    }
  }
  if (outage_lost > 0) {
    return false;
  }
  return outage_replace_ms.empty() ||
         outage_replace_ms.percentile(99.0) <=
             static_cast<double>(replace_slo_ms) / 1e6;
}

std::string FederationReport::to_text() const {
  // The degenerate federation renders its lone cell verbatim: one cell
  // behind a router IS that cluster, byte for byte.
  if (cells.size() == 1) {
    return cells[0].report.to_text();
  }
  std::string out;
  out += "federation: " + scenario + " (seed " + std::to_string(seed) + ")\n";
  out += "routing: " + routing + " across " + std::to_string(cells.size()) +
         " cells\n";
  out += "tenants: " + std::to_string(admitted) + " admitted, " +
         std::to_string(rejected) + " rejected, " + std::to_string(completed) +
         " completed of " + std::to_string(tenants) + " routed\n";
  if (spills > 0) {
    out += "inter-cell spills: " + std::to_string(spills) +
           " tenants moved to a lower-ranked cell after a refusal\n";
  }
  out += "makespan: " + fmt("%.2f", sim::to_millis(makespan)) +
         " ms; events processed: " + std::to_string(events_processed) + "\n";
  if (outage_victims > 0) {
    out += "cell outages: " + std::to_string(outage_victims) + " stranded, " +
           std::to_string(outage_rerouted) + " re-routed, " +
           std::to_string(outage_lost) + " lost";
    if (!outage_replace_ms.empty()) {
      out += "; re-place p50 " + fmt("%.2f", outage_replace_ms.percentile(50)) +
             " ms, p99 " + fmt("%.2f", outage_replace_ms.percentile(99)) +
             " ms";
    }
    out += "\n";
  }
  if (replace_slo_ms > 0) {
    out += "recovery SLO: p99 time-to-re-place within " +
           fmt("%.2f", sim::to_millis(replace_slo_ms)) + " ms, no loss -> " +
           (recovery_slo_pass() ? "PASS" : "FAIL") + "\n";
  }
  out += "\n";
  for (const CellRollup& c : cells) {
    out += c.name + " [" + c.region + "]: hosts " + std::to_string(c.hosts) +
           ", routed " + std::to_string(c.routed) + ", admitted " +
           std::to_string(c.admitted) + ", rejected " +
           std::to_string(c.rejected) + ", spill in " +
           std::to_string(c.spill_in) + ", spill out " +
           std::to_string(c.spill_out) + (c.outage ? ", OUTAGE" : "") + "\n";
  }
  for (const CellRollup& c : cells) {
    out += "\n--- " + c.name + " [" + c.region + "] ---\n";
    out += c.report.to_text();
  }
  return out;
}

Federation::Federation(FederationTopology topology)
    : topology_(std::move(topology)) {
  if (topology_.cells.empty()) {
    throw std::invalid_argument("Federation: topology has no cells");
  }
}

FederationReport Federation::run(const FederatedScenario& fs) {
  const int cell_n = static_cast<int>(topology_.cells.size());
  if (!fs.topology.cells.empty() &&
      static_cast<int>(fs.topology.cells.size()) != cell_n) {
    throw std::invalid_argument(
        "Federation: scenario topology has " +
        std::to_string(fs.topology.cells.size()) + " cells, federation has " +
        std::to_string(cell_n));
  }
  for (const CellOutage& o : fs.outages) {
    if (o.cell < 0 || o.cell >= cell_n) {
      throw std::invalid_argument("Federation: outage targets cell " +
                                  std::to_string(o.cell) + " of " +
                                  std::to_string(cell_n));
    }
  }

  // The global population, drawn once from the seed (or read in place).
  // Each cell's own engine checks that cell's spec.
  validate(fs.traffic);
  std::vector<TenantSeed> drawn;
  if (fs.traffic.population.empty()) {
    drawn = fs.traffic.draw_population();
  }
  const std::vector<TenantSeed>& population =
      fs.traffic.population.empty() ? drawn : fs.traffic.population;
  const int n = static_cast<int>(population.size());

  // Per-cell Scenario skeletons: the global traffic knobs (never the global
  // population) + that cell's mechanism, with scenario-level outages
  // lowered into the cell's fault schedule.
  std::vector<Scenario> cs(static_cast<std::size_t>(cell_n));
  for (int k = 0; k < cell_n; ++k) {
    Scenario& s = cs[static_cast<std::size_t>(k)];
    static_cast<TrafficKnobs&>(s) = fs.traffic;
    static_cast<CellSpec&>(s) = topology_.cells[static_cast<std::size_t>(k)].spec;
    s.tenant_count = 0;  // cells only ever run their routed subset
  }
  for (const CellOutage& o : fs.outages) {
    Fault f;
    f.kind = Fault::Kind::kCellOutage;
    f.time = o.time;
    f.restart_delay = o.restart_delay;
    f.restart_jitter = o.restart_jitter;
    cs[static_cast<std::size_t>(o.cell)].faults.push_back(f);
  }

  // Admission-effective aggregate RAM per cell, for the router's
  // projections (mirrors FleetEngine::init_shard's per-host cap).
  std::vector<std::uint64_t> cell_cap(static_cast<std::size_t>(cell_n));
  for (int k = 0; k < cell_n; ++k) {
    const CellSpec& spec = topology_.cells[static_cast<std::size_t>(k)].spec;
    const std::uint64_t per_host =
        spec.host_ram_override_bytes != 0
            ? spec.host_ram_override_bytes
            : (spec.cluster.ram_bytes != 0 ? spec.cluster.ram_bytes
                                           : core::HostSystemSpec{}.ram_bytes);
    cell_cap[static_cast<std::size_t>(k)] =
        per_host * static_cast<std::uint64_t>(
                       std::max(1, spec.cluster.host_count));
  }

  // Projected router-side load. The router never sees inside a cell; it
  // ranks on these estimates, and real admission inside each cell settles
  // the rest (spilling back through the router on refusal).
  struct Projection {
    std::uint64_t resident = 0;
    int count = 0;
    std::map<platforms::PlatformId, int> by_platform;
  };
  std::vector<Projection> proj(static_cast<std::size_t>(cell_n));

  std::unique_ptr<RoutingPolicy> router = make_routing(fs.routing);
  router->reset();
  for (int k = 0; k < cell_n; ++k) {
    router->target_updated(
        CellState{k, cell_cap[static_cast<std::size_t>(k)], 0, 0});
  }

  // Effective arrivals: a moved tenant carries its updated arrival
  // (rejection instant keeps the original; outage victims re-enter at their
  // jittered re-arrival). Every other seed field is read from `population`.
  std::vector<sim::Nanos> arrival(static_cast<std::size_t>(n));
  for (int gid = 0; gid < n; ++gid) {
    arrival[static_cast<std::size_t>(gid)] =
        population[static_cast<std::size_t>(gid)].arrival;
  }

  const auto estimate = [&](int gid) {
    const bool hv = is_hypervisor_backed(
        population[static_cast<std::size_t>(gid)].platform_id);
    // Same projection the density check uses: hypervisor tenants pin their
    // guest RAM; process-backed ones are assumed far lighter.
    return hv ? fs.traffic.guest_ram_bytes : fs.traffic.guest_ram_bytes / 4;
  };

  std::unordered_map<int, std::vector<char>> tried;

  const auto route_one = [&](int gid) -> int {
    const auto it = tried.find(gid);
    const std::vector<char>* skip = it == tried.end() ? nullptr : &it->second;
    router->walk_begin(PlacementRequest{
        population[static_cast<std::size_t>(gid)].platform_id});
    int c;
    while ((c = router->walk_next()) >= 0) {
      if (skip == nullptr || (*skip)[static_cast<std::size_t>(c)] == 0) {
        return c;
      }
    }
    return -1;
  };

  const auto project_into = [&](int gid, int k, int direction) {
    Projection& p = proj[static_cast<std::size_t>(k)];
    const std::uint64_t est = estimate(gid);
    if (direction > 0) {
      p.resident += est;
      p.count += 1;
    } else {
      p.resident = p.resident >= est ? p.resident - est : 0;
      p.count -= 1;
    }
    const platforms::PlatformId platform =
        population[static_cast<std::size_t>(gid)].platform_id;
    int& pc = p.by_platform[platform];
    pc += direction;
    router->target_updated(CellState{k, cell_cap[static_cast<std::size_t>(k)],
                                     p.resident, p.count});
    router->platform_count_changed(k, platform, pc);
  };

  // --- Initial routing pass, in global arrival order ----------------------
  std::vector<int> cell_of(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<int>> members(static_cast<std::size_t>(cell_n));
  for (int gid = 0; gid < n; ++gid) {
    const int c = route_one(gid);
    cell_of[static_cast<std::size_t>(gid)] = c;
    members[static_cast<std::size_t>(c)].push_back(gid);
    project_into(gid, c, +1);
  }

  // Ordered insert position by (effective arrival, global id) — the order
  // every cell population is kept in.
  const auto member_pos = [&](std::vector<int>& m, int gid) {
    return std::lower_bound(m.begin(), m.end(), gid, [&](int lhs, int rhs) {
      const sim::Nanos la = arrival[static_cast<std::size_t>(lhs)];
      const sim::Nanos ra = arrival[static_cast<std::size_t>(rhs)];
      if (la != ra) {
        return la < ra;
      }
      return lhs < rhs;
    });
  };

  // --- Run cells, spill the refused, repeat to a fixed point --------------
  std::vector<FleetReport> reports(static_cast<std::size_t>(cell_n));
  std::vector<std::vector<int>> run_members(static_cast<std::size_t>(cell_n));
  std::vector<int> spill_in(static_cast<std::size_t>(cell_n), 0);
  std::vector<int> spill_out(static_cast<std::size_t>(cell_n), 0);
  int spills = 0;
  // First strand instant per cell-outage victim, for the federation-level
  // recovery clock (ordered: the rollup below iterates it).
  std::map<int, sim::Nanos> outage_at;

  // One cell run: a fresh Cluster over the cell's routed subset, each seed
  // carrying its effective arrival. It reads only what the round leaves
  // alone and writes only cell k's slots, so a round's cells run
  // concurrently and share nothing mutable. The cell's previous report is
  // dropped first, so its memory is free before this run allocates, and
  // the Cluster is freed as soon as this run returns.
  const auto run_cell = [&](int k) {
    const auto c = static_cast<std::size_t>(k);
    reports[c] = FleetReport{};
    Scenario s = cs[c];
    s.population.reserve(members[c].size());
    for (const int gid : members[c]) {
      s.population.push_back(population[static_cast<std::size_t>(gid)]);
      s.population.back().arrival = arrival[static_cast<std::size_t>(gid)];
    }
    run_members[c] = members[c];
    Cluster cluster(topology_.cells[c].spec.cluster);
    reports[c] = cluster.run(s);
  };

  std::vector<char> dirty(static_cast<std::size_t>(cell_n), 1);
  bool any_dirty = true;
  while (any_dirty) {
    std::vector<int> ran;
    for (int k = 0; k < cell_n; ++k) {
      if (dirty[static_cast<std::size_t>(k)] != 0) {
        ran.push_back(k);
        dirty[static_cast<std::size_t>(k)] = 0;
      }
    }
    any_dirty = false;
    for_each_concurrently(ran.size(), [&](std::size_t i) { run_cell(ran[i]); });
    // The router reads only finished reports, walked in cell-index order,
    // so the spills below never depend on which cell finished first.
    for (const int k : ran) {
      const FleetReport& rep = reports[static_cast<std::size_t>(k)];
      const std::vector<int>& who = run_members[static_cast<std::size_t>(k)];
      for (std::size_t idx = 0; idx < who.size(); ++idx) {
        const TenantOutcome& o = rep.tenants[idx];
        if (o.admitted) {
          continue;
        }
        const int gid = who[idx];
        const bool stranded = o.lost_to_fault >= 0;
        const bool outage_victim =
            stranded &&
            rep.recovery[static_cast<std::size_t>(o.lost_to_fault)].kind ==
                "cell-outage";
        if (outage_victim) {
          outage_at.emplace(
              gid,
              rep.recovery[static_cast<std::size_t>(o.lost_to_fault)].time);
        }
        // Only refusals and whole-cell outages walk on: a tenant lost to an
        // ordinary crash already had its chance on the cell's survivors,
        // and that cell's own recovery verdict owns the failure.
        if (stranded && !outage_victim) {
          continue;
        }
        auto& mask = tried.try_emplace(gid, static_cast<std::size_t>(cell_n), 0)
                         .first->second;
        mask[static_cast<std::size_t>(k)] = 1;
        const int next = route_one(gid);
        if (next < 0) {
          continue;  // every cell tried: a federation-level rejection
        }
        // Move gid k -> next at its refusal/re-arrival instant.
        auto& from = members[static_cast<std::size_t>(k)];
        from.erase(member_pos(from, gid));
        project_into(gid, k, -1);
        arrival[static_cast<std::size_t>(gid)] = o.arrival;
        auto& to = members[static_cast<std::size_t>(next)];
        to.insert(member_pos(to, gid), gid);
        project_into(gid, next, +1);
        cell_of[static_cast<std::size_t>(gid)] = next;
        spill_out[static_cast<std::size_t>(k)] += 1;
        spill_in[static_cast<std::size_t>(next)] += 1;
        spills += 1;
        dirty[static_cast<std::size_t>(k)] = 1;
        dirty[static_cast<std::size_t>(next)] = 1;
        any_dirty = true;
      }
    }
  }

  // --- Roll up -------------------------------------------------------------
  FederationReport fr;
  fr.scenario = fs.traffic.name;
  fr.seed = fs.traffic.seed;
  fr.routing = router->name();
  fr.tenants = n;
  fr.spills = spills;
  fr.replace_slo_ms = fs.traffic.replace_slo_ms;
  for (int k = 0; k < cell_n; ++k) {
    const CellDesc& desc = topology_.cells[static_cast<std::size_t>(k)];
    FederationReport::CellRollup r;
    r.name = desc.name.empty() ? "cell" + std::to_string(k) : desc.name;
    r.region = desc.region;
    r.hosts = std::max(1, desc.spec.cluster.host_count);
    r.routed = static_cast<int>(members[static_cast<std::size_t>(k)].size());
    r.admitted = reports[static_cast<std::size_t>(k)].tenants_admitted();
    r.rejected = reports[static_cast<std::size_t>(k)].rejected;
    r.spill_in = spill_in[static_cast<std::size_t>(k)];
    r.spill_out = spill_out[static_cast<std::size_t>(k)];
    for (const FleetReport::RecoveryVerdict& v :
         reports[static_cast<std::size_t>(k)].recovery) {
      r.outage = r.outage || v.kind == "cell-outage";
    }
    fr.admitted += r.admitted;
    fr.completed += reports[static_cast<std::size_t>(k)].completed;
    fr.events_processed +=
        reports[static_cast<std::size_t>(k)].events_processed;
    fr.makespan =
        std::max(fr.makespan, reports[static_cast<std::size_t>(k)].makespan);
    r.report = std::move(reports[static_cast<std::size_t>(k)]);
    fr.cells.push_back(std::move(r));
  }
  fr.rejected = n - fr.admitted;

  // Cell-outage recovery, judged federation-wide: the cell lost everyone,
  // the router gave the victims somewhere else to boot.
  if (!outage_at.empty()) {
    std::vector<std::unordered_map<int, std::size_t>> pos(
        static_cast<std::size_t>(cell_n));
    for (int k = 0; k < cell_n; ++k) {
      const auto& m = members[static_cast<std::size_t>(k)];
      for (std::size_t i = 0; i < m.size(); ++i) {
        pos[static_cast<std::size_t>(k)][m[i]] = i;
      }
    }
    for (const auto& [gid, t0] : outage_at) {
      fr.outage_victims += 1;
      const int c = cell_of[static_cast<std::size_t>(gid)];
      const std::size_t idx = pos[static_cast<std::size_t>(c)].at(gid);
      const TenantOutcome& o =
          fr.cells[static_cast<std::size_t>(c)].report.tenants[idx];
      if (o.admitted) {
        fr.outage_rerouted += 1;
        fr.outage_replace_ms.add(
            sim::to_millis(o.arrival + o.boot_latency - t0));
      } else {
        fr.outage_lost += 1;
      }
    }
  }
  return fr;
}

}  // namespace fleet
