#include "fleet/engine.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace fleet {

namespace {

using platforms::PlatformId;
using platforms::WorkloadClass;

/// vCPUs a tenant demands while booting.
constexpr double kBootVcpus = 2.0;

/// vCPUs one in-flight workload phase demands, per class.
double workload_vcpus(WorkloadClass w) {
  switch (w) {
    case WorkloadClass::kCpu:
      return 2.0;
    case WorkloadClass::kMemory:
      return 1.0;
    case WorkloadClass::kIo:
    case WorkloadClass::kNetwork:
      return 0.5;
    case WorkloadClass::kStartup:
      return 1.0;
  }
  return 1.0;
}

/// KSM granularity for fleet guest RAM: 2 MiB (THP-sized) units keep the
/// stable tree small enough to rescan on every admission decision.
constexpr std::uint64_t kFleetPageBytes = 2ull << 20;

/// Fraction of a guest's RAM that stays untouched (zero pages) and merges
/// across every tenant once KSM scans it.
constexpr double kZeroPageFraction = 0.35;

/// Host RSS of the virtualization layer itself (device model, Sentry, ...).
std::uint64_t platform_overhead_bytes(PlatformId id) {
  switch (id) {
    case PlatformId::kQemuKvm:
      return 192ull << 20;
    case PlatformId::kKataContainers:
      return 160ull << 20;
    case PlatformId::kCloudHypervisor:
      return 48ull << 20;
    case PlatformId::kFirecracker:
      return 32ull << 20;
    case PlatformId::kOsvQemu:
      return 96ull << 20;
    case PlatformId::kOsvFirecracker:
      return 24ull << 20;
    case PlatformId::kGvisor:
      return 64ull << 20;
    case PlatformId::kNative:
    case PlatformId::kDocker:
    case PlatformId::kLxc:
      return 8ull << 20;
  }
  return 0;
}

std::uint64_t image_file_id(PlatformId id) {
  return 0xF1EE'0000ull + static_cast<std::uint64_t>(id);
}

/// Page-cache file ids for program ops: one private stream per tenant and
/// one shared file per built-in program (an image or common dataset the
/// whole program population reads). Both ranges sit far above the 32-bit
/// image/IO-phase ids, so they can never collide with them.
constexpr std::uint64_t kProgramFileBase = 0x509A'0000'0000ull;
constexpr std::uint64_t kProgramSharedBase = 0xA119'0000'0000ull;

std::uint64_t program_file_id(std::uint64_t tenant, int program,
                              bool shared) {
  return shared ? kProgramSharedBase + static_cast<std::uint64_t>(program)
                : kProgramFileBase + tenant;
}

/// Digest runs for one hypervisor tenant's guest RAM at kFleetPageBytes
/// granularity: a merged-everywhere zero-page run, a per-image run that
/// merges across tenants of the same platform, and a tenant-private run.
/// Three PageRuns describe the whole guest — no per-page vector ever
/// materializes, and the KSM stable tree ingests each run as one interval.
/// Fills `out` (recycled across admission trials; the retry walk probes
/// the same runs against every candidate host).
void guest_page_runs(std::vector<mem::PageRun>& out, std::uint64_t tenant,
                     PlatformId platform, std::uint64_t guest_ram_bytes,
                     std::uint64_t image_bytes) {
  const std::uint64_t total = std::max<std::uint64_t>(
      1, guest_ram_bytes / kFleetPageBytes);
  const auto zero_units = static_cast<std::uint64_t>(
      static_cast<double>(total) * kZeroPageFraction);
  const std::uint64_t image_units =
      std::min(total - zero_units, image_bytes / kFleetPageBytes);
  const std::uint64_t private_units = total - zero_units - image_units;
  out.clear();
  out.push_back({0x2E80'0000'0000'0000ull, zero_units});  // zero pages: global
  out.push_back(
      {0xBA5E'0000'0000'0000ull + (static_cast<std::uint64_t>(platform) << 32),
       image_units});
  out.push_back(
      {0x7E4A'0000'0000'0000ull + (tenant << 24) + zero_units + image_units,
       private_units});
}

}  // namespace

bool is_hypervisor_backed(PlatformId id) {
  switch (id) {
    case PlatformId::kQemuKvm:
    case PlatformId::kFirecracker:
    case PlatformId::kCloudHypervisor:
    case PlatformId::kKataContainers:
    case PlatformId::kOsvQemu:
    case PlatformId::kOsvFirecracker:
      return true;
    case PlatformId::kNative:
    case PlatformId::kDocker:
    case PlatformId::kLxc:
    case PlatformId::kGvisor:
      return false;
  }
  return false;
}

FleetEngine::FleetEngine(core::HostSystem& host) {
  shards_.emplace_back();
  shards_.back().host = &host;
}

FleetEngine::FleetEngine(const std::vector<core::HostSystem*>& hosts,
                         PlacementPolicy* policy, HostProvisioner* provisioner)
    : policy_(policy), provisioner_(provisioner) {
  if (hosts.empty()) {
    throw std::invalid_argument("FleetEngine: needs at least one host");
  }
  shards_.reserve(hosts.size());
  for (core::HostSystem* h : hosts) {
    if (h == nullptr) {
      throw std::invalid_argument("FleetEngine: null host");
    }
    shards_.emplace_back();
    shards_.back().host = h;
  }
}

std::uint64_t FleetEngine::Shard::resident_bytes() const {
  return non_ksm_resident + ksm.backing_pages() * kFleetPageBytes;
}

double FleetEngine::Shard::cpu_factor() const {
  const double threads = static_cast<double>(host->spec().cpu_threads);
  return std::max(1.0, cpu_demand / threads);
}

void FleetEngine::note_peaks(Shard& sh) {
  report_.peak_active = std::max(report_.peak_active, active_);
  report_.peak_cpu_demand = std::max(
      report_.peak_cpu_demand,
      sh.cpu_demand / static_cast<double>(sh.host->spec().cpu_threads));

  sh.rollup.peak_active = std::max(sh.rollup.peak_active, sh.active);
  const std::uint64_t shard_resident = sh.resident_bytes();
  if (shard_resident >= sh.rollup.peak_resident_bytes) {
    sh.rollup.peak_resident_bytes = shard_resident;
    sh.rollup.ksm.advised_pages = sh.ksm.advised_pages();
    sh.rollup.ksm.backing_pages = sh.ksm.backing_pages();
    sh.rollup.ksm.shared_pages = sh.ksm.shared_pages();
    sh.rollup.ksm.density_gain = sh.ksm.density_gain();
    sh.rollup.ksm.shared_fraction = sh.ksm.shared_fraction();
  }

  if (peak_audit_) {
    // Summed reference form the incremental counters replaced; any drift
    // between the two is a bookkeeping bug, latched for the test to see.
    std::uint64_t resident = 0;
    std::uint64_t advised = 0;
    std::uint64_t backing = 0;
    std::uint64_t shared = 0;
    for (const Shard& s : shards_) {
      resident += s.resident_bytes();
      advised += s.ksm.advised_pages();
      backing += s.ksm.backing_pages();
      shared += s.ksm.shared_pages();
    }
    if (resident != fleet_resident_ || advised != fleet_ksm_advised_ ||
        backing != fleet_ksm_backing_ || shared != fleet_ksm_shared_) {
      peak_audit_failed_ = true;
    }
  }
  if (fleet_resident_ >= report_.peak_resident_bytes) {
    report_.peak_resident_bytes = fleet_resident_;
    // Snapshot density at the high-water mark; teardowns later drain the
    // stable trees, so end-of-run numbers would always read empty.
    report_.ksm.advised_pages = fleet_ksm_advised_;
    report_.ksm.backing_pages = fleet_ksm_backing_;
    report_.ksm.shared_pages = fleet_ksm_shared_;
    report_.ksm.density_gain =
        fleet_ksm_backing_ == 0
            ? 1.0
            : static_cast<double>(fleet_ksm_advised_) /
                  static_cast<double>(fleet_ksm_backing_);
    report_.ksm.shared_fraction =
        fleet_ksm_advised_ == 0
            ? 0.0
            : static_cast<double>(fleet_ksm_shared_) /
                  static_cast<double>(fleet_ksm_advised_);
  }
}

FleetEngine::FleetDelta FleetEngine::fleet_before(const Shard& sh) const {
  return {sh.resident_bytes(), sh.ksm.advised_pages(), sh.ksm.backing_pages(),
          sh.ksm.shared_pages()};
}

void FleetEngine::fleet_apply(const Shard& sh, const FleetDelta& before) {
  fleet_resident_ += sh.resident_bytes() - before.resident;
  fleet_ksm_advised_ += sh.ksm.advised_pages() - before.advised;
  fleet_ksm_backing_ += sh.ksm.backing_pages() - before.backing;
  fleet_ksm_shared_ += sh.ksm.shared_pages() - before.shared;
}

bool FleetEngine::admit(Shard& sh, Tenant& t, const Scenario& s) {
  const FleetDelta before = fleet_before(sh);
  const std::uint64_t overhead = platform_overhead_bytes(t.platform_id);
  if (is_hypervisor_backed(t.platform_id) && s.enable_ksm) {
    // Fast-fail before the probe: advising only ever adds backing pages,
    // so a host that cannot even fit the overhead on top of its current
    // resident set cannot pass the probe check either.
    if (sh.resident_bytes() + overhead > sh.ram_cap) {
      return false;
    }
    // Read-only admission trial: probe the exact backing-page delta the
    // guest's digest runs would cause. Only the host that admits pays the
    // advise+scan tree mutation — a refusing candidate's stable tree is
    // never touched (the old path paid a full advise+scan / remove+scan
    // rollback cycle per refusal).
    guest_page_runs(run_scratch_, t.id, t.platform_id, s.guest_ram_bytes,
                    s.image_bytes);
    const mem::Ksm::ProbeDelta delta = sh.ksm.probe_runs(run_scratch_);
    if (sh.resident_bytes() + delta.backing_delta * kFleetPageBytes +
            overhead > sh.ram_cap) {
      return false;
    }
    sh.ksm.advise_runs(t.id, run_scratch_);
    sh.ksm.scan();
    t.resident_bytes = overhead;
    t.ksm_registered = true;
  } else {
    // Hypervisor guests without KSM reserve full guest RAM; namespace-
    // backed tenants only pay their process RSS.
    t.resident_bytes = is_hypervisor_backed(t.platform_id)
                           ? overhead + s.guest_ram_bytes
                           : overhead + s.guest_ram_bytes / 4;
    if (sh.resident_bytes() + t.resident_bytes > sh.ram_cap) {
      return false;
    }
  }
  sh.non_ksm_resident += t.resident_bytes;
  fleet_apply(sh, before);
  return true;
}

void FleetEngine::handle_arrival(Tenant& t, const Scenario& s) {
  // A tripped density-stop latch rejects before placement: no host is
  // consulted, no policy state advances, and the rejection counts only in
  // the fleet-level total — not against any host's rollup. A crash can
  // also kill the whole fleet; with nowhere to place, the arrival is
  // rejected the same way (no first-OOM latch — this is a capacity
  // outage, not a density wall).
  if ((s.stop_at_first_oom && report_.first_oom_tenant >= 0) ||
      live_hosts_ == 0) {
    reject(t);
    return;
  }

  // Retry-on-reject: walk the policy's candidates and admit on the first
  // host whose RAM accepts the tenant. Only a full walk with every live
  // host refusing is an OOM — attributed to the *last* host tried — and
  // only then may the density-stop latch trip. The walk pulls candidates
  // lazily, paying only for the candidates actually tried. A single-shard
  // engine admits on its one host without asking the policy, so a cursor
  // policy such as round-robin starts moving only once the cluster grows.
  int first_choice = -1;
  int admitted_host = -1;
  int last_tried = -1;
  const auto try_host = [&](int host) {
    Shard& candidate = shards_[static_cast<std::size_t>(host)];
    if (first_choice < 0) {
      first_choice = host;
    }
    last_tried = host;
    t.platform = candidate.platforms.at(t.platform_id).get();
    if (admit(candidate, t, s)) {
      admitted_host = host;
    }
  };
  if (shards_.size() == 1) {
    try_host(0);
  } else {
    policy_->walk_begin(PlacementRequest{t.platform_id});
    for (int host = policy_->walk_next(); host >= 0;
         host = policy_->walk_next()) {
      if (host >= static_cast<int>(shards_.size()) ||
          !shards_[static_cast<std::size_t>(host)].live) {
        throw std::out_of_range(
            "PlacementPolicy::walk_next returned an invalid host index");
      }
      try_host(host);
      if (admitted_host >= 0) {
        break;
      }
    }
    if (first_choice < 0) {
      throw std::logic_error("PlacementPolicy::walk_next emitted no hosts");
    }
  }
  if (admitted_host < 0) {
    if (report_.first_oom_tenant < 0) {
      report_.first_oom_tenant = static_cast<std::int64_t>(t.id);
    }
    ++shards_[static_cast<std::size_t>(last_tried)].rollup.rejected;
    reject(t);
    return;
  }

  Shard& sh = shards_[static_cast<std::size_t>(admitted_host)];
  t.host = admitted_host;
  if (admitted_host != first_choice) {
    ++report_.spills;
    ++sh.rollup.spill_in;
    ++shards_[static_cast<std::size_t>(first_choice)].rollup.spill_out;
  }
  t.outcome.admitted = true;
  ++report_.admitted;
  ++sh.rollup.admitted;
  ++active_;
  ++sh.active;
  ++sh.tenants_by_platform[t.platform_id];
  notify_platform_count(sh, t.platform_id);
  charge(sh, t, Tenant::InFlight::kBoot, kBootVcpus, false);
  t.holds_resources = true;
  note_peaks(sh);

  // Boot: the platform's sampled end-to-end sequence plus pulling the boot
  // image through the shard's host page cache, both stretched by CPU
  // contention across that host's fleet share. Runs that can shard defer
  // the physics to a kBootPhys event at the same instant: the contention
  // factor is captured here, the sampling and cache/NVMe charges happen
  // when that event pops (see deferred_boot_).
  if (deferred_boot_) {
    t.boot_factor = sh.cpu_factor();
    queue_.push(t.clock.now(), t.id, EventKind::kBootPhys, t.epoch);
    return;
  }
  const sim::Nanos done = boot_physics(sh, t, s, sh.cpu_factor());
  queue_.push(done, t.id, EventKind::kBootDone, t.epoch);
}

sim::Nanos FleetEngine::boot_physics(Shard& sh, Tenant& t, const Scenario& s,
                                     double factor) {
  const sim::Nanos arrival = t.clock.now();
  t.platform->boot_total(t.clock, t.rng);
  const sim::Nanos boot_ns = t.clock.now() - arrival;

  sim::Nanos image_ns = 0;
  const std::uint64_t misses = read_through(
      sh, image_file_id(t.platform_id), s.image_bytes, t.rng, image_ns);
  if (misses == 0) {
    image_ns = sim::micros(50);  // fully cache-resident image
  }

  auto total = static_cast<sim::Nanos>(
      static_cast<double>(boot_ns + image_ns) * factor);
  // Boots that actually pulled the image run the pull at degraded NVMe
  // speed inside a disk-degrade window, and wait out any partition window
  // on this host; a fully cache-resident boot touches neither the device
  // nor the wire.
  if (misses > 0) {
    total = stretch(degrades_, sh.rollup.host, arrival, total);
    total = nic_stall(sh, partitions_, arrival, total);
  }
  t.clock.advance_to(arrival + total);
  t.outcome.boot_latency = total;
  return arrival + total;
}

void FleetEngine::handle_boot_phys(Tenant& t, const Scenario& s) {
  Shard& sh = shards_[static_cast<std::size_t>(t.host)];
  const sim::Nanos done = boot_physics(sh, t, s, t.boot_factor);
  queue_.push(done, t.id, EventKind::kBootDone, t.epoch);
}

void FleetEngine::handle_boot_done(Tenant& t, const Scenario& s) {
  discharge(shards_[static_cast<std::size_t>(t.host)], t);
  // One string-keyed lookup per *platform id* per run, here; later boots
  // and every phase reuse the id-indexed slot. Creating the entry lazily
  // (not at tenant setup) keeps platforms whose tenants never booted out
  // of the report table.
  PlatformFleetStats*& slot =
      stats_by_id_[static_cast<std::size_t>(t.platform_id)];
  if (slot == nullptr) {
    slot = &report_.by_platform[t.platform->name()];
    slot->platform = t.platform->name();
  }
  auto& stats = *slot;
  const bool first_boot = !t.counted_in_stats;
  if (first_boot) {
    // Distinct tenants, not boots: churn re-arrivals add boot/phase
    // samples but must not inflate the fleet-composition column.
    ++stats.tenants;
    t.counted_in_stats = true;
  }
  stats.boot_ms.add(sim::to_millis(t.outcome.boot_latency));
  report_.cluster_boot_ms.add(sim::to_millis(t.outcome.boot_latency));
  if (t.crash_fault >= 0) {
    // Recovery resolved: the victim is serving again on a survivor.
    // Time-to-re-place runs from the crash instant to this boot finishing.
    // Re-admission is counted here, not at the admitting arrival, so a
    // victim drain-migrated between admission and boot counts once.
    const double ms = sim::to_millis(
        t.clock.now() - faults_[static_cast<std::size_t>(t.crash_fault)].time);
    auto& rv = report_.recovery[static_cast<std::size_t>(
        recovery_slot_[static_cast<std::size_t>(t.crash_fault)])];
    rv.replace_ms.add(ms);
    ++rv.readmitted;
    ++report_.crash_readmitted;
    report_.replace_ms.add(ms);
    t.crash_fault = -1;
  }

  if (t.program >= 0) {
    // Program tenants interpret their syscall program instead of the drawn
    // statistical phases. The cursor is reset at *every* boot completion:
    // a crash or drain loses the in-flight cursor, and the re-admitted
    // tenant starts its program over from the top.
    const SyscallProgram& prog = builtin_program(t.program);
    ProgramFleetStats*& pslot =
        pstats_by_id_[static_cast<std::size_t>(t.program)];
    if (pslot == nullptr) {
      pslot = &report_.by_program[prog.name];
      pslot->program = prog.name;
    }
    if (first_boot) {
      ++pslot->tenants;
    }
    t.prog_op = 0;
    t.prog_loops_left = std::max(1, prog.loops);
    start_program_op(t, s);
    return;
  }

  if (t.phases.empty()) {
    queue_.push(t.clock.now(), t.id, EventKind::kTeardown, t.epoch);
    return;
  }
  start_phase(t, t.phases[static_cast<std::size_t>(t.next_phase)], s);
}

void FleetEngine::start_phase(Tenant& t, platforms::WorkloadClass w,
                              const Scenario& s) {
  Shard& sh = shards_[static_cast<std::size_t>(t.host)];
  charge(sh, t, Tenant::InFlight::kPhase, workload_vcpus(w),
         w == WorkloadClass::kNetwork);
  note_peaks(sh);
  t.phase_start = t.clock.now();
  t.clock.advance(phase_cost(t, w, s));
  queue_.push(t.clock.now(), t.id, EventKind::kPhaseDone, t.epoch);
}

void FleetEngine::handle_phase_done(Tenant& t, const Scenario& s) {
  discharge(shards_[static_cast<std::size_t>(t.host)], t);
  const WorkloadClass w = t.phases[static_cast<std::size_t>(t.next_phase)];
  t.platform->record_workload(w, t.rng);  // this host's HAP window
  stats_by_id_[static_cast<std::size_t>(t.platform_id)]->phase_ms.add(
      sim::to_millis(t.clock.now() - t.phase_start));
  ++t.next_phase;
  ++t.outcome.phases_run;

  if (t.next_phase < static_cast<int>(t.phases.size())) {
    start_phase(t, t.phases[static_cast<std::size_t>(t.next_phase)], s);
    return;
  }
  begin_teardown(t);
}

void FleetEngine::begin_teardown(Tenant& t) {
  t.platform->record_workload(WorkloadClass::kStartup, t.rng);
  t.clock.advance(sim::millis(t.rng.uniform(2.0, 8.0)));
  queue_.push(t.clock.now(), t.id, EventKind::kTeardown, t.epoch);
}

void FleetEngine::start_program_op(Tenant& t, const Scenario& s) {
  Shard& sh = shards_[static_cast<std::size_t>(t.host)];
  const SyscallProgram& prog = builtin_program(t.program);
  const ProgramOp& op = prog.ops[static_cast<std::size_t>(t.prog_op)];
  const OpClass cls = op_class(op.sc);
  charge(sh, t, Tenant::InFlight::kProgram, op_vcpus(cls),
         cls == OpClass::kNetwork);
  note_peaks(sh);
  t.phase_start = t.clock.now();
  // Service time excludes the think gap: the op-latency sample the report
  // percentiles come from is the modeled syscall (plus any retry timeouts
  // and backoffs), not the idle wait.
  const OpIssue issue = issue_program_op(t, op, s);
  t.prog_service = issue.service;
  note_op_outcome(t.id, issue);
  t.clock.advance(op.think);
  queue_.push(t.clock.now(), t.id, EventKind::kProgramStep, t.epoch);
}

FleetEngine::OpIssue FleetEngine::issue_program_op(Tenant& t,
                                                   const ProgramOp& op,
                                                   const Scenario& s) {
  OpIssue issue;
  const sim::Nanos slo = s.op_slo_ms;
  const sim::Nanos backoff_base = s.op_backoff_base_ms;
  const bool can_retry =
      degraded_accounting_ && s.op_max_retries > 0 && slo > 0;

  OpImpact first{};
  sim::Nanos cost = program_op_cost(t, op, &first);
  issue.fault = first.fault;
  // Undisturbed first-attempt cost: the baseline the issue's added-latency
  // sample is judged against.
  const sim::Nanos base0 = cost - first.added;
  sim::Nanos elapsed = 0;
  while (can_retry && cost > slo && issue.retries < s.op_max_retries) {
    // The attempt blew its budget: abandon it at the deadline, back off
    // exponentially (jitter from the tenant's own stream so replays are
    // exact), and re-issue. The re-issue recomputes the full cost — fresh
    // cache state, fresh contention, and for network ops a fresh peer
    // draw, which is what routes around a partial partition.
    const sim::Nanos backoff =
        (backoff_base << issue.retries) +
        static_cast<sim::Nanos>(t.rng.next_double() *
                                static_cast<double>(backoff_base));
    t.clock.advance(slo + backoff);
    elapsed += slo + backoff;
    ++issue.retries;
    OpImpact again{};
    cost = program_op_cost(t, op, &again);
    if (issue.fault < 0) {
      issue.fault = again.fault;
    }
  }
  t.clock.advance(cost);
  issue.service = elapsed + cost;
  // A give-up is a *final* attempt still past the budget: the op completes
  // late instead of failing, but the SLO is gone. With retries disabled
  // (the no-retry control) every over-budget op is a give-up.
  if (degraded_accounting_ && slo > 0 && cost > slo) {
    issue.give_up = true;
  }
  if (issue.fault >= 0) {
    issue.added_ms = sim::to_millis(issue.service - base0);
  }
  return issue;
}

void FleetEngine::note_op_outcome(std::uint64_t tenant_id,
                                  const OpIssue& issue) {
  if (!degraded_accounting_) {
    return;
  }
  report_.op_retries += issue.retries;
  if (issue.give_up) {
    ++report_.op_give_ups;
  }
  if (issue.fault < 0) {
    return;
  }
  const int slot = degraded_slot_[static_cast<std::size_t>(issue.fault)];
  if (slot < 0) {
    return;
  }
  auto& v = report_.degraded[static_cast<std::size_t>(slot)];
  degrade_affected_[static_cast<std::size_t>(slot)].insert(tenant_id);
  v.retries += issue.retries;
  if (issue.give_up) {
    ++v.give_ups;
  }
  if (issue.added_ms >= 0.0) {
    v.added_ms.add(issue.added_ms);
  }
}

sim::Nanos FleetEngine::program_op_cost(Tenant& t, const ProgramOp& op,
                                        OpImpact* impact) {
  Shard& sh = shards_[static_cast<std::size_t>(t.host)];
  // The kernel charge is the first-class part: every op dispatches through
  // HostKernel::invoke, so programs light up the same ftrace/HAP machinery
  // the statistical phases do — per *syscall*, not per workload class.
  sim::Nanos cost = sh.host->kernel().invoke(op.sc, t.rng, op.repeat);
  const OpClass cls = op_class(op.sc);
  const std::uint64_t payload =
      op.bytes * static_cast<std::uint64_t>(op.repeat);
  // Ops that actually reached the NVMe this issue; only those stretch
  // through a disk-degrade window (a cache-served read never notices a
  // slow device).
  bool touched_disk = false;
  switch (cls) {
    case OpClass::kFile:
    case OpClass::kMemory:
      // File reads and mmap-backed data fault through the host page cache;
      // only misses touch the NVMe. File writes are buffered: they dirty
      // the cache for free and pay the device only when an explicit fsync
      // flushes them.
      if (payload > 0 && !op_is_write(op.sc)) {
        touched_disk =
            read_through(sh, program_file_id(t.id, t.program, op.shared_file),
                         payload, t.rng, cost) > 0;
      }
      break;
    case OpClass::kSync:
      cost += sh.host->nvme().write(
          std::max<std::uint64_t>(payload, hostk::PageCache::kPageSize),
          t.rng);
      touched_disk = true;
      break;
    case OpClass::kNetwork:
      if (payload > 0) {
        auto& nic = sh.host->nic();
        cost += nic.transfer_time(payload, t.rng) *
                    std::max(1, sh.net_active) +
                nic.latency(t.rng);
      }
      break;
    case OpClass::kOther:
      break;
  }
  auto total =
      static_cast<sim::Nanos>(static_cast<double>(cost) * sh.cpu_factor());
  const sim::Nanos begin = t.clock.now();
  if (touched_disk) {
    // Disk work progresses at 1/multiplier inside a degrade window: the
    // completion stretches by exactly the degraded share of the overlap.
    total = stretch(degrades_, sh.rollup.host, begin, total, -1, impact);
  }
  if (cls == OpClass::kNetwork && payload > 0) {
    // Same rule as statistical network phases: a partition freezes NIC
    // progress and the op stretches by exactly the window overlap.
    total = nic_stall(sh, partitions_, begin, total);
    if (!pairs_.empty()) {
      // Partial partitions cut host *pairs*: draw the far end uniformly
      // over the initial topology, self included (self = host-local
      // traffic, which no cut matches). The op stalls only when the drawn
      // peer sits across an open cut — so a later re-issue's fresh draw
      // can route around it.
      const int n = static_cast<int>(pairs_.size());
      const int peer = std::min(
          n - 1, static_cast<int>(t.rng.next_double() *
                                  static_cast<double>(n)));
      total = nic_stall(sh, pairs_, begin, total, peer, impact);
    }
  }
  return total;
}

void FleetEngine::handle_program_step(Tenant& t, const Scenario& s) {
  discharge(shards_[static_cast<std::size_t>(t.host)], t);
  const SyscallProgram& prog = builtin_program(t.program);
  const ProgramOp& op = prog.ops[static_cast<std::size_t>(t.prog_op)];
  auto& pcls = pstats_by_id_[static_cast<std::size_t>(t.program)]
                   ->by_class[static_cast<std::size_t>(op_class(op.sc))];
  pcls.ops += op.repeat;
  pcls.op_ms.add(sim::to_millis(t.prog_service));
  ++t.outcome.phases_run;

  ++t.prog_op;
  if (t.prog_op < static_cast<int>(prog.ops.size())) {
    start_program_op(t, s);
    return;
  }
  t.prog_op = 0;
  if (--t.prog_loops_left > 0) {
    start_program_op(t, s);
    return;
  }
  begin_teardown(t);
}

void FleetEngine::charge(Shard& sh, Tenant& t, Tenant::InFlight what,
                         double vcpus, bool nic) {
  t.in_flight = what;
  t.vcpus = vcpus;
  t.on_nic = nic;
  sh.cpu_demand += vcpus;
  if (nic) {
    ++sh.net_active;
  }
}

void FleetEngine::discharge(Shard& sh, Tenant& t) {
  sh.cpu_demand -= t.vcpus;
  if (t.on_nic) {
    --sh.net_active;
  }
  t.in_flight = Tenant::InFlight::kNone;
  t.vcpus = 0.0;
  t.on_nic = false;
}

void FleetEngine::release_tenant(Shard& sh, Tenant& t) {
  const FleetDelta before = fleet_before(sh);
  discharge(sh, t);
  if (t.ksm_registered) {
    sh.ksm.remove(t.id);
    sh.ksm.scan();
    t.ksm_registered = false;
  }
  sh.non_ksm_resident -= t.resident_bytes;
  t.resident_bytes = 0;
  --sh.active;
  --sh.tenants_by_platform[t.platform_id];
  t.holds_resources = false;
  --active_;
  notify_platform_count(sh, t.platform_id);
  fleet_apply(sh, before);
}

void FleetEngine::publish_host(Shard& sh) {
  if (policy_ == nullptr || !sh.live) {
    return;
  }
  HostState state;
  state.index = sh.rollup.host;
  state.ram_cap_bytes = sh.ram_cap;
  state.resident_bytes = sh.resident_bytes();
  state.active_tenants = sh.active;
  state.pressure.cpu_demand = sh.cpu_demand;
  state.pressure.cpu_threads = sh.host->spec().cpu_threads;
  state.pressure.net_active = sh.net_active;
  policy_->target_updated(state);
}

void FleetEngine::notify_platform_count(Shard& sh, platforms::PlatformId id) {
  if (policy_ == nullptr || !sh.live) {
    return;
  }
  policy_->platform_count_changed(sh.rollup.host, id,
                                  sh.tenants_by_platform[id]);
}

void FleetEngine::handle_teardown(Tenant& t, const Scenario& s) {
  Shard& sh = shards_[static_cast<std::size_t>(t.host)];
  release_tenant(sh, t);
  t.outcome.completed = true;
  t.outcome.completion = t.clock.now();
  ++t.outcome.rounds_completed;
  ++report_.completed;

  if (t.rounds_left > 0) {
    // Churn: idle out the gap, then re-enter the fleet. Placement and
    // admission run again, so the tenant may land on a different host or
    // be rejected if the fleet filled up meanwhile. requeue_arrival
    // restarts the outcome's per-round fields, so a rejected re-arrival
    // cannot keep a stale completed/boot record from the previous round.
    --t.rounds_left;
    t.clock.advance(s.churn_gap);
    ++report_.churn_rearrivals;
    requeue_arrival(t, t.clock.now());
  }
}

void FleetEngine::requeue_arrival(Tenant& t, sim::Nanos at) {
  ++t.epoch;
  t.next_phase = 0;
  t.clock = sim::Clock(at);
  t.outcome.arrival = at;
  t.outcome.boot_latency = 0;
  t.outcome.completion = 0;
  t.outcome.completed = false;
  queue_.push(at, t.id, EventKind::kArrival, t.epoch);
}

void FleetEngine::reject(Tenant& t) {
  t.outcome.admitted = false;
  t.resident_bytes = 0;
  ++report_.rejected;
  if (t.crash_fault < 0) {
    return;
  }
  const int slot = recovery_slot_[static_cast<std::size_t>(t.crash_fault)];
  ++report_.recovery[static_cast<std::size_t>(slot)].lost;
  ++report_.crash_lost;
  t.outcome.lost_to_fault = slot;
  t.crash_fault = -1;  // recovery resolved: permanently lost
}

// --- Mid-run topology changes ----------------------------------------------

double FleetEngine::resident_fraction() const {
  std::uint64_t cap = 0;
  std::uint64_t resident = 0;
  for (const Shard& sh : shards_) {
    if (!sh.live) {
      continue;
    }
    cap += sh.ram_cap;
    resident += sh.resident_bytes();
  }
  return cap == 0 ? 0.0
                  : static_cast<double>(resident) / static_cast<double>(cap);
}

int FleetEngine::pick_drain_host() const {
  int best = -1;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& sh = shards_[i];
    if (!sh.live) {
      continue;
    }
    // Fewest active tenants = cheapest migration; ties drain the highest
    // index (the newest host), mirroring scale-out order.
    if (best < 0 || sh.active <= shards_[static_cast<std::size_t>(best)].active) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

void FleetEngine::record_autoscale(sim::Nanos time, const std::string& action,
                                   int host, double fraction) {
  FleetReport::AutoscaleAction a;
  a.time = time;
  a.action = action;
  a.host = host;
  a.live_hosts = live_hosts_;
  a.resident_fraction = fraction;
  report_.autoscale_timeline.push_back(std::move(a));
}

int FleetEngine::add_shard(const Scenario& s) {
  core::HostSystem* host = provisioner_->provision_host();
  const int index = static_cast<int>(shards_.size());
  shards_.emplace_back();
  Shard& sh = shards_.back();
  sh.host = host;
  init_shard(sh, index, s);
  start_observing(sh);  // from its birth instant
  ++live_hosts_;
  publish_host(sh);
  return index;
}

void FleetEngine::drain_shard(int index, sim::Nanos now) {
  Shard& sh = shards_[static_cast<std::size_t>(index)];
  if (!sh.live) {
    // Already drained or crashed — possibly earlier in this very timestamp
    // batch (a timed kDrain racing a same-instant crash). Draining a dead
    // host twice would re-release its tenants and corrupt every counter.
    return;
  }
  retire_shard(index);
  sh.rollup.drained = true;
  // Re-place every tenant this host still held, as churn-style
  // re-arrivals: resources released here and now, a fresh arrival event
  // queued at the drain instant, placement + admission deciding again.
  // The new epoch discards the tenant's already-queued events.
  for (Tenant& t : tenants_) {
    if (t.host != index || !t.holds_resources) {
      continue;
    }
    release_tenant(sh, t);
    ++report_.drain_migrations;
    requeue_arrival(t, now);
  }
}

void FleetEngine::retire_shard(int index) {
  shards_[static_cast<std::size_t>(index)].live = false;
  --live_hosts_;
  if (policy_ != nullptr) {
    policy_->target_removed(index);
  }
}

void FleetEngine::handle_host_event(const Event& e, const Scenario& s) {
  const HostEvent& he = s.host_events[static_cast<std::size_t>(e.tenant)];
  if (he.kind == HostEvent::Kind::kAdd) {
    if (provisioner_ == nullptr) {
      return;  // a bare engine cannot grow; the hook is a no-op
    }
    const double fraction = resident_fraction();
    const int index = add_shard(s);
    record_autoscale(e.time, "add", index, fraction);
    return;
  }
  int target = he.host;
  if (target < 0) {
    target = pick_drain_host();
  }
  if (target < 0 || target >= static_cast<int>(shards_.size()) ||
      !shards_[static_cast<std::size_t>(target)].live || live_hosts_ <= 1) {
    return;  // never drain the last live host or a dead index
  }
  const double fraction = resident_fraction();
  drain_shard(target, e.time);
  record_autoscale(e.time, "drain", target, fraction);
}

void FleetEngine::handle_autoscale_eval(sim::Nanos now, const Scenario& s) {
  const AutoscaleSpec& a = s.autoscale;
  const double fraction = resident_fraction();
  const bool cooled = !has_scaled_ || now - last_scale_ >= a.cooldown_ms;
  if (cooled) {
    if (fraction > a.scale_out_watermark && live_hosts_ < a.max_hosts &&
        provisioner_ != nullptr) {
      const int index = add_shard(s);
      record_autoscale(now, "scale-out", index, fraction);
      has_scaled_ = true;
      last_scale_ = now;
    } else if (fraction < a.scale_in_watermark && live_hosts_ > a.min_hosts) {
      const int target = pick_drain_host();
      if (target >= 0) {
        drain_shard(target, now);
        record_autoscale(now, "scale-in", target, fraction);
        has_scaled_ = true;
        last_scale_ = now;
      }
    }
  }
  // Keep evaluating while any tenant activity remains; when this eval was
  // the only queued event, the loop (and the run) is over.
  if (!queue_.empty()) {
    queue_.push(now + a.eval_interval, 0, EventKind::kAutoscaleEval);
  }
}

// --- Fault injection ---------------------------------------------------------

void FleetEngine::handle_fault(const Event& e, const Scenario& s) {
  const ResolvedFault& f = faults_[e.tenant];
  if (e.kind == EventKind::kDegradeStart) {
    // KSM unmerge storm (kMemPressure is the only kind that queues these):
    // every merged page on the target hosts re-expands to its backing copy
    // at this instant, and the stable tree re-merges only at the window-end
    // scan — or early, by a hypervisor admission's scan pass. The resident
    // spike is real RAM pressure: it can trip admission and the autoscale
    // watermark, which is exactly the degraded-mode story.
    const int slot = degraded_slot_[static_cast<std::size_t>(f.id)];
    auto& dv = report_.degraded[static_cast<std::size_t>(slot)];
    for (const int h : f.hosts) {
      Shard& sh = shards_[static_cast<std::size_t>(h)];
      if (!sh.live) {
        continue;
      }
      const FleetDelta before = fleet_before(sh);
      const std::uint64_t pages = sh.ksm.unmerge();
      fleet_apply(sh, before);
      dv.resident_spike_bytes += pages * kFleetPageBytes;
      note_peaks(sh);
      publish_host(sh);
    }
    for (const Tenant& t : tenants_) {
      if (!t.holds_resources || !t.ksm_registered) {
        continue;
      }
      for (const int h : f.hosts) {
        if (t.host == h) {
          degrade_affected_[static_cast<std::size_t>(slot)].insert(t.id);
          break;
        }
      }
    }
    return;
  }
  if (e.kind == EventKind::kDegradeEnd) {
    // Window closes: one scan pass re-merges whatever survived on the
    // stable tree. Merging only shrinks resident; the republish keeps
    // placement pressure honest.
    for (const int h : f.hosts) {
      Shard& sh = shards_[static_cast<std::size_t>(h)];
      if (!sh.live) {
        continue;
      }
      const FleetDelta before = fleet_before(sh);
      sh.ksm.scan();
      fleet_apply(sh, before);
      publish_host(sh);
    }
    return;
  }
  if (e.kind == EventKind::kPartitionEnd) {
    // Heal instant. The stall itself is precomputed from the immutable
    // window list, so the event does nothing; it still counts in
    // events_processed and keeps the queue's timeline honest.
    return;
  }
  // Every crash-family fault pushes exactly one verdict at its start
  // event; recovery_slot_ maps the fault id to that verdict for all later
  // bookkeeping (degrade-family faults own DegradeVerdicts instead, so
  // recovery is not indexable by fault id).
  FleetReport::RecoveryVerdict v;
  v.fault = f.id;
  v.rack = f.rack;
  v.time = f.time;
  if (e.kind == EventKind::kPartitionStart) {
    v.kind = "partition";
    v.duration = f.duration;
    for (const int h : f.hosts) {
      if (shards_[static_cast<std::size_t>(h)].live) {
        v.hosts.push_back(h);
      }
    }
    recovery_slot_[static_cast<std::size_t>(f.id)] =
        static_cast<int>(report_.recovery.size());
    report_.recovery.push_back(std::move(v));
    return;
  }
  // A cell outage resolves to every initial host (chaos.h) and otherwise
  // follows crash semantics; the verdict keeps its own kind so a federation
  // (and the report reader) can tell total loss from a single-host crash.
  v.kind = f.kind == Fault::Kind::kCellOutage ? "cell-outage" : "crash";
  // Per-fault restart-jitter stream: victims draw from it in tenant-id
  // order, never from their own RNGs, so victim workloads replay
  // identically after the crash.
  sim::Rng frng(s.seed ^ (0xC8A5'0000'0000'0000ull +
                          static_cast<std::uint64_t>(f.id)));
  for (const int h : f.hosts) {
    if (!shards_[static_cast<std::size_t>(h)].live) {
      continue;  // already drained or crashed, possibly this same instant
    }
    v.hosts.push_back(h);
    crash_shard(h, f, e.time, frng, v);
  }
  report_.crash_victims += v.victims;
  report_.boots_lost += v.boots_lost;
  recovery_slot_[static_cast<std::size_t>(f.id)] =
      static_cast<int>(report_.recovery.size());
  report_.recovery.push_back(std::move(v));
}

void FleetEngine::crash_shard(int index, const ResolvedFault& f,
                              sim::Nanos now, sim::Rng& frng,
                              FleetReport::RecoveryVerdict& v) {
  Shard& sh = shards_[static_cast<std::size_t>(index)];
  const FleetDelta before = fleet_before(sh);
  retire_shard(index);
  sh.rollup.crashed = true;
  // Victims die mid-phase: unlike a graceful drain there is no per-tenant
  // release — their in-flight CPU/NIC demand vanishes with the host, and
  // the host's KSM stable tree and page cache are lost wholesale below.
  // Each victim re-arrives on the survivors after the fault's restart
  // delay plus a per-victim jitter draw, facing placement + admission
  // again; its new epoch discards its already-queued events.
  for (Tenant& t : tenants_) {
    if (t.host != index || !t.holds_resources) {
      continue;
    }
    if (t.in_flight == Tenant::InFlight::kBoot) {
      // Crash-during-boot: the partial boot dies with the host. Nothing
      // carries over — the re-arrival faces admission again and starts a
      // fresh boot against a cold image cache.
      ++v.boots_lost;
    }
    // Its charge, tree registration and resident share die with the host.
    t.in_flight = Tenant::InFlight::kNone;
    t.vcpus = 0.0;
    t.on_nic = false;
    t.ksm_registered = false;
    t.resident_bytes = 0;
    t.holds_resources = false;
    --active_;
    t.crash_fault = f.id;
    ++v.victims;
    const sim::Nanos rearrive =
        now + f.restart_delay +
        static_cast<sim::Nanos>(frng.next_double() *
                                static_cast<double>(f.restart_jitter));
    requeue_arrival(t, rearrive);
  }
  // The host state dies wholesale: cold page cache, empty stable tree,
  // every activity counter zeroed. fleet_apply folds the loss into the
  // incremental fleet counters exactly (set_peak_audit checks this).
  sh.ksm = mem::Ksm{};
  sh.host->page_cache().drop_caches();
  sh.non_ksm_resident = 0;
  sh.active = 0;
  sh.net_active = 0;
  sh.cpu_demand = 0.0;
  sh.tenants_by_platform.clear();
  fleet_apply(sh, before);
}

sim::Nanos FleetEngine::stretch(
    const std::vector<std::vector<FaultWindow>>& windows, int host,
    sim::Nanos begin, sim::Nanos total, int peer, OpImpact* impact) {
  // Hosts added mid-run sit past the initial topology and are never fault
  // targets, so indexing can simply bounds-check.
  if (host >= static_cast<int>(windows.size())) {
    return total;
  }
  int fault = -1;
  const sim::Nanos stretched =
      stretched_completion(windows[static_cast<std::size_t>(host)], begin,
                           total, peer, &fault) -
      begin;
  if (impact != nullptr && stretched != total) {
    if (impact->fault < 0) {
      impact->fault = fault;
    }
    impact->added += stretched - total;
  }
  return stretched;
}

sim::Nanos FleetEngine::nic_stall(
    Shard& sh, const std::vector<std::vector<FaultWindow>>& windows,
    sim::Nanos begin, sim::Nanos total, int peer, OpImpact* impact) {
  const sim::Nanos stalled =
      stretch(windows, sh.rollup.host, begin, total, peer, impact);
  if (stalled != total) {
    ++sh.rollup.nic_stalls;
  }
  return stalled;
}

std::uint64_t FleetEngine::read_through(Shard& sh, std::uint64_t file,
                                        std::uint64_t bytes, sim::Rng& rng,
                                        sim::Nanos& device_ns) {
  const std::uint64_t misses =
      sh.host->page_cache().access_range(file, 0, bytes);
  if (misses > 0) {
    device_ns +=
        sh.host->nvme().read(misses * hostk::PageCache::kPageSize, rng);
  }
  return misses;
}

sim::Nanos FleetEngine::phase_cost(Tenant& t, WorkloadClass w,
                                   const Scenario& s) {
  Shard& sh = shards_[static_cast<std::size_t>(t.host)];
  // Lognormal around the scenario mean (mu = -sigma^2/2 keeps E[X] = mean).
  constexpr double kSigma = 0.35;
  const double base_ms =
      sim::to_millis(s.mean_phase_duration) *
      t.rng.lognormal(-kSigma * kSigma / 2.0, kSigma);
  const sim::Nanos base = sim::millis(base_ms);

  sim::Nanos cost = 0;
  switch (w) {
    case WorkloadClass::kCpu: {
      const auto& cpu = t.platform->cpu_profile();
      const double factor = 0.7 * cpu.scalar_factor + 0.3 * cpu.simd_factor;
      cost = static_cast<sim::Nanos>(static_cast<double>(base) * factor);
      break;
    }
    case WorkloadClass::kMemory: {
      const auto& mp = t.platform->memory_profile();
      const double bw = std::max(0.05, mp.bandwidth_factor);
      cost = static_cast<sim::Nanos>(static_cast<double>(base) / bw);
      break;
    }
    case WorkloadClass::kIo:
      cost = base / 5;
      read_through(sh, 0xD47A'0000ull + t.id, s.io_bytes_per_phase, t.rng,
                   cost);
      break;
    case WorkloadClass::kNetwork: {
      auto& nic = sh.host->nic();
      const sim::Nanos wire =
          nic.transfer_time(s.net_bytes_per_phase, t.rng) *
          std::max(1, sh.net_active);
      cost = base / 10 + wire + nic.latency(t.rng);
      break;
    }
    case WorkloadClass::kStartup:
      cost = base / 10;
      break;
  }
  auto total =
      static_cast<sim::Nanos>(static_cast<double>(cost) * sh.cpu_factor());
  if (w == WorkloadClass::kNetwork) {
    // A partition freezes NIC progress: the phase completion stretches by
    // exactly the window overlap, computed from the immutable per-run
    // window list at scheduling time. t.clock.now() is still the phase
    // start here — start_phase advances the clock by this function's
    // return value.
    total = nic_stall(sh, partitions_, t.clock.now(), total);
  }
  return total;
}

void FleetEngine::init_shard(Shard& sh, int index, const Scenario& s) {
  sh.live = true;
  sh.ksm = mem::Ksm{};
  sh.platforms.clear();
  sh.active = 0;
  sh.net_active = 0;
  sh.cpu_demand = 0.0;
  sh.non_ksm_resident = 0;
  sh.ram_cap = s.host_ram_override_bytes != 0 ? s.host_ram_override_bytes
                                              : sh.host->spec().ram_bytes;
  sh.tenants_by_platform.clear();
  sh.rollup = HostRollup{};
  sh.rollup.host = index;
  // One shared platform instance per distinct id in the mix.
  for (const auto& share : s.platform_mix) {
    if (sh.platforms.find(share.id) == sh.platforms.end()) {
      sh.platforms[share.id] =
          platforms::PlatformFactory::create(share.id, *sh.host);
    }
  }
}

void FleetEngine::start_observing(Shard& sh) {
  sh.host->kernel().ftrace().start();
  sh.cache_hits0 = sh.host->page_cache().hits();
  sh.cache_misses0 = sh.host->page_cache().misses();
  sh.nvme_read0 = sh.host->nvme().bytes_read();
}

void FleetEngine::process_event(const Event& e, const Scenario& s,
                                const std::vector<sim::Nanos>& arrivals,
                                sim::Nanos& last_event) {
  ++report_.events_processed;
  global_clock_.advance_to(e.time);
  if (e.kind == EventKind::kHostEvent) {
    handle_host_event(e, s);
    return;
  }
  if (e.kind == EventKind::kAutoscaleEval) {
    handle_autoscale_eval(e.time, s);
    return;
  }
  if (e.kind == EventKind::kHostCrash || e.kind == EventKind::kPartitionStart ||
      e.kind == EventKind::kPartitionEnd ||
      e.kind == EventKind::kDegradeStart ||
      e.kind == EventKind::kDegradeEnd) {
    handle_fault(e, s);
    return;
  }
  Tenant& t = tenants_[e.tenant];
  if (e.epoch != t.epoch) {
    return;  // canceled by a drain migration; superseded lifecycle
  }
  last_event = e.time;  // makespan tracks tenant activity, not evals
  switch (e.kind) {
    case EventKind::kArrival:
      handle_arrival(t, s);
      break;
    case EventKind::kBootPhys:
      handle_boot_phys(t, s);
      break;
    case EventKind::kBootDone:
      handle_boot_done(t, s);
      break;
    case EventKind::kPhaseDone:
      handle_phase_done(t, s);
      break;
    case EventKind::kProgramStep:
      handle_program_step(t, s);
      break;
    case EventKind::kTeardown:
      handle_teardown(t, s);
      break;
    case EventKind::kHostEvent:
    case EventKind::kAutoscaleEval:
    case EventKind::kHostCrash:
    case EventKind::kPartitionStart:
    case EventKind::kPartitionEnd:
    case EventKind::kDegradeStart:
    case EventKind::kDegradeEnd:
      break;  // handled above
  }
  if (policy_ != nullptr) {
    // One state push for the shard this event touched. A rejected
    // arrival changed nothing, so re-publishing the tenant's previous
    // shard is a harmless (and cheap) no-op upsert.
    publish_host(shards_[static_cast<std::size_t>(t.host)]);
  }
  if (e.kind == EventKind::kArrival &&
      e.tenant == static_cast<std::uint64_t>(arrival_cursor_)) {
    // That was the cursor tenant's initial arrival (re-arrivals always
    // carry a smaller id): seed the next one — or, once the density
    // latch has tripped, reject the whole unseeded tail in bulk. Each
    // of those arrivals would have been one queue round-trip ending in
    // the pre-placement latch check; the outcome (admitted = false, one
    // fleet-level rejection, no host consulted) is identical, only the
    // per-tenant event cost disappears.
    ++arrival_cursor_;
    // Bound by the materialized population (arrivals), not s.tenant_count:
    // an explicit routed population may be any size.
    const int tenant_count = static_cast<int>(arrivals.size());
    if (arrival_cursor_ < tenant_count) {
      if (s.stop_at_first_oom && report_.first_oom_tenant >= 0) {
        for (int i = arrival_cursor_; i < tenant_count; ++i) {
          reject(tenants_[static_cast<std::size_t>(i)]);
        }
        latched_tail_ = true;
        latched_tail_time_ = arrivals.back();
        arrival_cursor_ = tenant_count;
      } else {
        queue_.push_at_seq(
            arrivals[static_cast<std::size_t>(arrival_cursor_)],
            arrival_seq_base_ + static_cast<std::uint64_t>(arrival_cursor_),
            static_cast<std::uint64_t>(arrival_cursor_),
            EventKind::kArrival);
      }
    }
  }
}

FleetReport FleetEngine::run(const Scenario& s) {
  // Every scenario rule lives in validate (scenario.h): malformed input
  // throws here, before any state is touched, instead of corrupting state
  // deep in the event loop.
  const int initial_hosts = static_cast<int>(shards_.size());
  validate(s);
  validate(s, initial_hosts);
  if (shards_.size() > 1 && policy_ == nullptr) {
    throw std::invalid_argument(
        "FleetEngine::run: cluster runs need a placement policy");
  }
  faults_ = resolve_faults(s, initial_hosts);
  partitions_ = build_windows(faults_, initial_hosts, Fault::Kind::kPartition);
  degrades_ = build_windows(faults_, initial_hosts, Fault::Kind::kDiskDegrade);
  pairs_ =
      build_windows(faults_, initial_hosts, Fault::Kind::kPartialPartition);
  queue_ = EventQueue{};
  report_ = FleetReport{};
  report_.scenario = s.name;
  report_.seed = s.seed;
  // Runs that start single-host but may grow (autoscale, host events) need
  // the policy name too; plain single-host runs keep it empty so their
  // to_text() stays byte-identical to the pinned goldens.
  if (policy_ != nullptr &&
      (shards_.size() > 1 || s.autoscale.enabled || !s.host_events.empty())) {
    report_.placement = policy_->name();
  }
  report_.boot_slo_ms = s.boot_slo_ms;
  report_.replace_slo_ms = s.replace_slo_ms;
  report_.op_slo_ms = s.op_slo_ms;
  // Degraded-mode setup. Verdicts for degrade-family faults are created up
  // front in fault-id order: disk and pair degrades queue no events at all
  // (their windows are precomputed), so ops can be disturbed before any
  // event for the fault would have popped. Accounting is live only when a
  // degrade fault is scheduled or retries are enabled — otherwise no
  // counter moves and no extra RNG draw happens, keeping every pre-existing
  // scenario byte-identical.
  recovery_slot_.assign(faults_.size(), -1);
  degraded_slot_.assign(faults_.size(), -1);
  degrade_affected_.clear();
  degraded_accounting_ = s.op_max_retries > 0;
  for (const ResolvedFault& f : faults_) {
    if (!is_degrade_kind(f.kind)) {
      continue;
    }
    degraded_accounting_ = true;
    degraded_slot_[static_cast<std::size_t>(f.id)] =
        static_cast<int>(report_.degraded.size());
    FleetReport::DegradeVerdict dv;
    dv.fault = f.id;
    dv.kind = f.kind == Fault::Kind::kDiskDegrade    ? "disk-degrade"
              : f.kind == Fault::Kind::kMemPressure  ? "mem-pressure"
                                                     : "partial-partition";
    dv.rack = f.rack;
    dv.time = f.time;
    dv.duration = f.duration;
    dv.hosts = f.hosts;
    dv.peer = f.peer;
    dv.multiplier = f.kind == Fault::Kind::kDiskDegrade ? f.degrade : 0.0;
    report_.degraded.push_back(std::move(dv));
    degrade_affected_.emplace_back();
  }
  tenants_.clear();
  global_clock_.reset();
  active_ = 0;
  last_scale_ = 0;
  has_scaled_ = false;
  fleet_resident_ = 0;
  fleet_ksm_advised_ = 0;
  fleet_ksm_backing_ = 0;
  fleet_ksm_shared_ = 0;
  peak_audit_failed_ = false;
  latched_tail_ = false;
  latched_tail_time_ = 0;
  // Runs that can shard (now or mid-run) defer boot physics to kBootPhys
  // events; plain single-host runs keep the inline flow the pinned goldens
  // expect. The flag is fixed per run.
  deferred_boot_ = shards_.size() > 1 || s.autoscale.enabled ||
                   !s.host_events.empty() || !s.faults.empty();
  live_hosts_ = static_cast<int>(shards_.size());
  stats_by_id_.fill(nullptr);
  pstats_by_id_.fill(nullptr);
  if (policy_ != nullptr) {
    policy_->reset();
  }

  for (std::size_t i = 0; i < shards_.size(); ++i) {
    init_shard(shards_[i], static_cast<int>(i), s);
  }
  for (Shard& sh : shards_) {
    publish_host(sh);
  }

  // The population: either the scenario carries an explicit pre-drawn one
  // (a federation router's per-cell subset, already in arrival order) or we
  // draw tenant_count tenants from the seed. draw_population() is the
  // engine's historical inline draw hoisted onto TrafficSpec, so the drawn
  // path is byte-identical to what this loop used to produce.
  std::vector<TenantSeed> drawn;
  if (s.population.empty()) {
    drawn = s.draw_population();
  }
  const std::vector<TenantSeed>& pop = s.population.empty() ? drawn
                                                            : s.population;
  const int tenant_count = static_cast<int>(pop.size());

  std::vector<sim::Nanos> arrivals;
  arrivals.reserve(pop.size());
  for (const TenantSeed& seed : pop) {
    arrivals.push_back(seed.arrival);
  }

  for (Shard& sh : shards_) {
    start_observing(sh);
  }

  tenants_.reserve(pop.size());
  for (int i = 0; i < tenant_count; ++i) {
    const TenantSeed& seed = pop[static_cast<std::size_t>(i)];
    tenants_.emplace_back();
    Tenant& t = tenants_.back();
    t.id = static_cast<std::uint64_t>(i);
    t.platform_id = seed.platform_id;
    // Named from shard 0's instance here; re-bound to the placed shard's
    // instance at every (re-)arrival.
    t.platform = shards_.front().platforms.at(t.platform_id).get();
    t.rng = seed.rng;
    t.clock = sim::Clock(seed.arrival);
    t.rounds_left = s.churn_rounds;
    t.phases = seed.phases;
    t.outcome.id = t.id;
    t.outcome.platform_id = t.platform_id;
    t.outcome.arrival = seed.arrival;
    t.program = seed.program;
  }
  // Arrivals are seeded lazily — only the next initial arrival sits in the
  // queue — so a tripped density-stop latch can reject the unseeded tail
  // in bulk instead of paying one event per post-latch tenant. Reserving
  // the whole seq block up front keeps every event's (time, seq) key, and
  // therefore all tie-breaking, identical to an eagerly seeded queue.
  arrival_seq_base_ =
      queue_.reserve_seqs(static_cast<std::uint64_t>(tenant_count));
  arrival_cursor_ = 0;
  if (tenant_count > 0) {
    queue_.push_at_seq(arrivals.front(), arrival_seq_base_, 0,
                       EventKind::kArrival);
  }

  // Topology-change events share the one global deterministic queue with
  // tenant events, so autoscaled runs stay byte-reproducible.
  for (std::size_t i = 0; i < s.host_events.size(); ++i) {
    queue_.push(s.host_events[i].time, static_cast<std::uint64_t>(i),
                EventKind::kHostEvent);
  }
  if (s.autoscale.enabled) {
    queue_.push(s.autoscale.eval_interval, 0, EventKind::kAutoscaleEval);
  }
  // Fault events ride the same global queue. Pushed in id (= time) order,
  // so fault start events pop in id order and each crash-family start
  // appends its verdict to recovery (recovery_slot_ maps the id).
  for (const ResolvedFault& f : faults_) {
    const auto id = static_cast<std::uint64_t>(f.id);
    if (f.kind == Fault::Kind::kPartition) {
      queue_.push(f.time, id, EventKind::kPartitionStart);
      queue_.push(f.time + f.duration, id, EventKind::kPartitionEnd);
    } else if (f.kind == Fault::Kind::kMemPressure) {
      // The only degrade kind that mutates shard state (the KSM unmerge
      // storm and its re-merge), so the only one that needs events; disk
      // degrades and partial partitions act purely through the immutable
      // precomputed windows.
      queue_.push(f.time, id, EventKind::kDegradeStart);
      queue_.push(f.time + f.duration, id, EventKind::kDegradeEnd);
    } else if (f.kind == Fault::Kind::kDiskDegrade ||
               f.kind == Fault::Kind::kPartialPartition) {
      // No events: the windows are already in degrades_/pairs_.
    } else {
      // kCrash and kCellOutage both ride the crash event; the resolved
      // fault's host list (one host vs. the whole topology) is the split.
      queue_.push(f.time, id, EventKind::kHostCrash);
    }
  }

  sim::Nanos first_arrival = arrivals.empty() ? 0 : arrivals.front();
  sim::Nanos last_event = first_arrival;
  while (!queue_.empty()) {
    process_event(queue_.pop(), s, arrivals, last_event);
  }
  if (latched_tail_) {
    // The bulk-rejected arrivals never became events; without this the
    // makespan would stop at the last *processed* event instead of the
    // last arrival, as the eager queue reported it.
    last_event = std::max(last_event, latched_tail_time_);
  }

  report_.hosts.reserve(shards_.size());
  for (Shard& sh : shards_) {
    sh.host->kernel().ftrace().stop();
    const auto& ftrace = sh.host->kernel().ftrace();
    sh.rollup.hap.distinct_functions = ftrace.distinct_functions();
    sh.rollup.hap.total_invocations = ftrace.total_invocations();
    const auto& registry = sh.host->kernel().registry();
    for (const auto& [fn, count] : ftrace.counts()) {
      (void)count;
      sh.rollup.hap.extended_hap += epss_.score(registry.function(fn));
    }
    sh.rollup.ksm.enabled = s.enable_ksm;
    sh.rollup.page_cache_hits = sh.host->page_cache().hits() - sh.cache_hits0;
    sh.rollup.page_cache_misses =
        sh.host->page_cache().misses() - sh.cache_misses0;
    sh.rollup.nvme_bytes_read = sh.host->nvme().bytes_read() - sh.nvme_read0;

    report_.hap.distinct_functions += sh.rollup.hap.distinct_functions;
    report_.hap.total_invocations += sh.rollup.hap.total_invocations;
    report_.hap.extended_hap += sh.rollup.hap.extended_hap;
    report_.page_cache_hits += sh.rollup.page_cache_hits;
    report_.page_cache_misses += sh.rollup.page_cache_misses;
    report_.nvme_bytes_read += sh.rollup.nvme_bytes_read;
    report_.nic_stalls += sh.rollup.nic_stalls;
    report_.hosts.push_back(sh.rollup);
  }

  report_.ksm.enabled = s.enable_ksm;
  report_.makespan = last_event - first_arrival;
  report_.final_host_count = live_hosts_;

  report_.tenants.reserve(tenants_.size());
  for (const Tenant& t : tenants_) {
    report_.tenants.push_back(t.outcome);
  }
  for (std::size_t i = 0; i < report_.degraded.size(); ++i) {
    report_.degraded[i].affected =
        static_cast<int>(degrade_affected_[i].size());
  }
  // Hand the report over instead of copying it: the next run() starts from
  // a fresh one anyway.
  return std::move(report_);
}

}  // namespace fleet
