#include "fleet/report.h"

#include <cstdio>

#include "stats/table.h"

namespace fleet {

namespace {

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return std::string(buf);
}

}  // namespace

std::string FleetReport::to_text() const {
  std::string out;
  out += "scenario: " + scenario + " (seed " + std::to_string(seed) + ")\n";
  if (is_cluster()) {
    out += "placement: " + placement + " across " +
           std::to_string(hosts.size()) + " hosts\n";
  }
  out += "tenants: " + std::to_string(admitted) + " admitted, " +
         std::to_string(rejected) + " rejected, " + std::to_string(completed) +
         " completed; peak active " + std::to_string(peak_active) + "\n";
  if (spills > 0) {
    out += "spills: " + std::to_string(spills) +
           " admissions landed on a lower-ranked host after a refusal\n";
  }
  out += "makespan: " + fmt("%.2f", sim::to_millis(makespan)) + " ms; peak CPU demand " +
         fmt("%.2f", peak_cpu_demand) + "x host threads; peak resident " +
         fmt("%.1f", static_cast<double>(peak_resident_bytes) / (1ull << 30)) +
         " GiB\n";
  if (first_oom_tenant >= 0) {
    out += "density wall: tenant " + std::to_string(first_oom_tenant) +
           " was the first to not fit in host RAM\n";
  }
  if (ksm.enabled) {
    out += "ksm: " + std::to_string(ksm.advised_pages) + " pages advised -> " +
           std::to_string(ksm.backing_pages) + " backing (gain " +
           fmt("%.2f", ksm.density_gain) + "x, " +
           fmt("%.1f", 100.0 * ksm.shared_fraction) + "% cross-tenant shared)\n";
  }
  out += "host page cache: " + std::to_string(page_cache_hits) + " hits, " +
         std::to_string(page_cache_misses) + " misses; nvme read " +
         fmt("%.1f", static_cast<double>(nvme_bytes_read) / (1ull << 20)) +
         " MiB\n";
  out += "fleet HAP: " + std::to_string(hap.distinct_functions) +
         " distinct host fns, " + std::to_string(hap.total_invocations) +
         " invocations, extended HAP " + fmt("%.2f", hap.extended_hap) + "\n";
  if (is_cluster() && !cluster_boot_ms.empty()) {
    const auto [p50, p90, p99] = cluster_boot_ms.percentiles({50, 90, 99});
    out += "cluster boot CDF: p50 " + fmt("%.2f", p50) + " ms, p90 " +
           fmt("%.2f", p90) + " ms, p99 " + fmt("%.2f", p99) + " ms over " +
           std::to_string(cluster_boot_ms.size()) + " boots\n";
  }
  // SLO verdict: rendered only when the scenario set a budget, so
  // budget-less runs stay byte-identical to the pinned goldens.
  if (boot_slo_ms > 0 && !cluster_boot_ms.empty()) {
    out += "boot SLO: " + fmt("%.1f", 100.0 * boot_slo_fraction()) +
           "% of " + std::to_string(cluster_boot_ms.size()) +
           " cold starts within " + fmt("%.2f", sim::to_millis(boot_slo_ms)) +
           " ms\n";
  }
  if (churn_rearrivals > 0) {
    out += "churn: " + std::to_string(churn_rearrivals) + " re-arrivals\n";
  }
  if (!autoscale_timeline.empty()) {
    out += "autoscale: " + std::to_string(autoscale_timeline.size()) +
           " actions; final " + std::to_string(final_host_count) +
           " live hosts";
    if (drain_migrations > 0) {
      out += "; " + std::to_string(drain_migrations) + " drain migrations";
    }
    out += "\n";
    for (const AutoscaleAction& a : autoscale_timeline) {
      out += "  t=" + fmt("%.2f", sim::to_millis(a.time)) + " ms  " +
             a.action + " host " + std::to_string(a.host) + " (" +
             std::to_string(a.live_hosts) + " live, resident " +
             fmt("%.1f", 100.0 * a.resident_fraction) + "%)\n";
    }
  }
  // Chaos section: rendered only for runs that injected faults, so
  // fault-free goldens stay byte-identical.
  if (!recovery.empty()) {
    out += "chaos: " + std::to_string(recovery.size()) + " faults; " +
           std::to_string(crash_victims) + " victims, " +
           std::to_string(crash_readmitted) + " re-admitted (" +
           fmt("%.1f", 100.0 * readmission_fraction()) + "%), " +
           std::to_string(crash_lost) + " lost";
    if (nic_stalls > 0) {
      out += "; " + std::to_string(nic_stalls) + " NIC completions stalled";
    }
    out += "\n";
    for (const RecoveryVerdict& v : recovery) {
      out += "  t=" + fmt("%.2f", sim::to_millis(v.time)) + " ms  " + v.kind;
      if (!v.rack.empty()) {
        out += " rack " + v.rack;
      }
      out += " host(s)";
      for (const int h : v.hosts) {
        out += " " + std::to_string(h);
      }
      if (v.kind == "partition") {
        out += " for " + fmt("%.2f", sim::to_millis(v.duration)) + " ms";
      } else {
        out += ": " + std::to_string(v.victims) + " victims, " +
               std::to_string(v.readmitted) + " re-admitted, " +
               std::to_string(v.lost) + " lost";
        // Rendered only when a crash actually caught a boot in flight, so
        // crash goldens without mid-boot victims keep their bytes.
        if (v.boots_lost > 0) {
          out += ", " + std::to_string(v.boots_lost) + " partial boots lost";
        }
        if (!v.replace_ms.empty()) {
          const auto [p50, p99] = v.replace_ms.percentiles({50, 99});
          out += "; re-place p50 " + fmt("%.2f", p50) + " ms, p99 " +
                 fmt("%.2f", p99) + " ms";
        }
        // Per-fault SLO verdict, gated on a declared budget so budget-less
        // chaos runs keep their historical bytes.
        if (replace_slo_ms > 0) {
          out += v.slo_pass(replace_slo_ms) ? "; SLO PASS" : "; SLO FAIL";
        }
      }
      out += "\n";
    }
    if (!replace_ms.empty()) {
      const auto [p50, p99] = replace_ms.percentiles({50, 99});
      out += "recovery: time-to-re-place p50 " + fmt("%.2f", p50) +
             " ms, p99 " + fmt("%.2f", p99) + " ms over " +
             std::to_string(replace_ms.size()) + " re-placements\n";
    }
    if (replace_slo_ms > 0) {
      out += "recovery SLO: p99 time-to-re-place within " +
             fmt("%.2f", sim::to_millis(replace_slo_ms)) + " ms, no loss -> " +
             (recovery_slo_pass() ? "PASS" : "FAIL") + "\n";
    }
  }
  // Degraded-mode section: rendered only when degrade-family faults fired
  // or the retry engine counted anything, so every historical golden stays
  // byte-identical.
  if (!degraded.empty() || op_retries > 0 || op_give_ups > 0) {
    out += "degraded: " + std::to_string(degraded.size()) + " faults; " +
           std::to_string(op_retries) + " op retries, " +
           std::to_string(op_give_ups) + " give-ups\n";
    for (const DegradeVerdict& v : degraded) {
      out += "  t=" + fmt("%.2f", sim::to_millis(v.time)) + " ms  " + v.kind;
      if (!v.rack.empty()) {
        out += " rack " + v.rack;
      }
      out += " host(s)";
      for (const int h : v.hosts) {
        out += " " + std::to_string(h);
      }
      if (v.kind == "partial-partition") {
        out += " <-> " + std::to_string(v.peer);
      }
      if (v.kind == "disk-degrade") {
        out += " x" + fmt("%.1f", v.multiplier);
      }
      out += " for " + fmt("%.2f", sim::to_millis(v.duration)) + " ms: " +
             std::to_string(v.affected) + " tenants affected, " +
             std::to_string(v.retries) + " retries, " +
             std::to_string(v.give_ups) + " give-ups";
      if (v.kind == "mem-pressure") {
        out += ", resident spike " +
               fmt("%.1f", static_cast<double>(v.resident_spike_bytes) /
                               (1ull << 20)) +
               " MiB";
      }
      if (!v.added_ms.empty()) {
        const auto [p50, p99] = v.added_ms.percentiles({50, 99});
        out += "; added latency p50 " + fmt("%.3f", p50) + " ms, p99 " +
               fmt("%.3f", p99) + " ms";
      }
      out += "\n";
    }
  }
  // Syscall-program section: rendered only for runs with a program mix, so
  // all-statistical goldens stay byte-identical.
  if (!by_program.empty()) {
    int program_tenants = 0;
    std::uint64_t program_ops = 0;
    for (const auto& [name, prog] : by_program) {
      (void)name;
      program_tenants += prog.tenants;
      for (const ProgramOpClassStats& cls : prog.by_class) {
        program_ops += cls.ops;
      }
    }
    out += "programs: " + std::to_string(by_program.size()) + " programs, " +
           std::to_string(program_tenants) + " tenants, " +
           std::to_string(program_ops) + " ops\n";
    // program_slo_pass(), folded from the per-class p99s rendered below:
    // both skip exactly the classes without latency samples.
    bool program_pass = true;
    for (const auto& [name, prog] : by_program) {
      out += "  " + name + " (" + std::to_string(prog.tenants) + " tenants)\n";
      for (std::size_t c = 0; c < prog.by_class.size(); ++c) {
        const ProgramOpClassStats& cls = prog.by_class[c];
        if (cls.op_ms.empty()) {
          continue;
        }
        const auto [p50, p99] = cls.op_ms.percentiles({50, 99});
        out += "    " + op_class_name(static_cast<OpClass>(c)) + ": " +
               std::to_string(cls.ops) + " ops, p50 " + fmt("%.3f", p50) +
               " ms, p99 " + fmt("%.3f", p99) + " ms";
        // Per-class SLO verdict, gated on a declared budget so budget-less
        // program runs keep their bytes.
        if (op_slo_ms > 0) {
          const bool pass = p99 <= static_cast<double>(op_slo_ms) / 1e6;
          program_pass = program_pass && pass;
          out += pass ? " [SLO PASS]" : " [SLO FAIL]";
        }
        out += "\n";
      }
    }
    if (op_slo_ms > 0) {
      out += "program SLO: per-op p99 within " +
             fmt("%.2f", sim::to_millis(op_slo_ms)) + " ms -> " +
             (program_pass ? "PASS" : "FAIL") + "\n";
    }
  }
  out += "\n";

  stats::Table table({"platform", "tenants", "boot p50 (ms)", "boot p90 (ms)",
                      "boot p99 (ms)", "phase p50 (ms)"});
  for (const auto& [name, stats] : by_platform) {
    if (stats.boot_ms.empty()) {
      table.add_row({name, std::to_string(stats.tenants), "-", "-", "-", "-"});
      continue;
    }
    const auto [p50, p90, p99] = stats.boot_ms.percentiles({50, 90, 99});
    table.add_row(
        {name, std::to_string(stats.tenants), stats::Table::num(p50),
         stats::Table::num(p90), stats::Table::num(p99),
         stats.phase_ms.empty() ? "-"
                                : stats::Table::num(stats.phase_ms.percentile(50))});
  }
  out += table.to_text();

  if (is_cluster()) {
    out += "\n";
    stats::Table host_table({"host", "admitted", "rejected", "spill in",
                             "spill out", "peak active",
                             "peak resident (GiB)", "ksm shared pages",
                             "hap fns", "extended HAP"});
    bool any_drained = false;
    bool any_crashed = false;
    for (const HostRollup& h : hosts) {
      any_drained = any_drained || h.drained;
      any_crashed = any_crashed || h.crashed;
      host_table.add_row(
          {std::to_string(h.host) +
               (h.drained ? "*" : h.crashed ? "!" : ""),
           std::to_string(h.admitted),
           std::to_string(h.rejected), std::to_string(h.spill_in),
           std::to_string(h.spill_out), std::to_string(h.peak_active),
           stats::Table::num(static_cast<double>(h.peak_resident_bytes) /
                             static_cast<double>(1ull << 30), 1),
           std::to_string(h.ksm.shared_pages),
           std::to_string(h.hap.distinct_functions),
           stats::Table::num(h.hap.extended_hap)});
    }
    out += host_table.to_text();
    if (any_drained) {
      out += "(* = host was drained mid-run)\n";
    }
    if (any_crashed) {
      out += "(! = host crashed mid-run)\n";
    }
  }
  return out;
}

double FleetReport::boot_slo_fraction() const {
  if (cluster_boot_ms.empty()) {
    return 0.0;
  }
  return cluster_boot_ms.fraction_below(sim::to_millis(boot_slo_ms));
}

core::CdfSeries FleetReport::cluster_boot_cdf() const {
  core::CdfSeries s;
  s.platform = "cluster";
  s.samples_ms = cluster_boot_ms;
  return s;
}

std::vector<core::CdfSeries> FleetReport::boot_cdfs() const {
  std::vector<core::CdfSeries> series;
  for (const auto& [name, stats] : by_platform) {
    if (stats.boot_ms.empty()) {
      continue;
    }
    core::CdfSeries s;
    s.platform = name;
    s.samples_ms = stats.boot_ms;
    series.push_back(std::move(s));
  }
  return series;
}

}  // namespace fleet
