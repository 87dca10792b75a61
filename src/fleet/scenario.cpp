#include "fleet/scenario.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "fleet/program.h"

namespace fleet {

namespace {

constexpr sim::Nanos kMaxNanos = std::numeric_limits<sim::Nanos>::max();

/// Cumulative-weight draw over one mix (platform, workload or program
/// shares): one uniform draw scaled by the total, minus each weight in
/// order until it reaches zero, falling back to the last share when
/// rounding leaves a remainder. Every drawn population depends on that
/// arithmetic byte for byte.
template <typename Share>
class WeightedPick {
 public:
  explicit WeightedPick(const std::vector<Share>& mix) : mix_(mix) {
    for (const Share& share : mix_) {
      total_ += share.weight;
    }
  }

  const Share& operator()(sim::Rng& r) const {
    double x = r.next_double() * total_;
    for (const Share& share : mix_) {
      x -= share.weight;
      if (x <= 0.0) {
        return share;
      }
    }
    return mix_.back();
  }

 private:
  const std::vector<Share>& mix_;
  double total_ = 0.0;
};

}  // namespace

const ClusterTopology::Rack* ClusterTopology::rack(
    const std::string& name) const {
  for (const Rack& r : racks) {
    if (r.name == name) {
      return &r;
    }
  }
  return nullptr;
}

void validate(const TrafficSpec& t) {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("TrafficSpec: " + what);
  };
  if (t.platform_mix.empty() || t.workload_mix.empty()) {
    fail("scenario needs a platform mix and a workload mix");
  }
  if (t.phases_per_tenant <= 0) {
    // Zero phases would silently draw no workload at all and tear every
    // tenant down straight out of boot — a mis-specified scenario, not a
    // meaningful population.
    fail("phases_per_tenant must be positive");
  }
  if (t.op_max_retries < 0) {
    fail("op_max_retries must be non-negative");
  }
  if (t.op_max_retries > 0 && t.op_backoff_base_ms <= 0) {
    fail("op_max_retries needs a positive op_backoff_base_ms");
  }
  if (t.op_max_retries > 0 && t.op_slo_ms <= 0) {
    // Retries time out at the op SLO; without a budget there is nothing to
    // retry against and the knob would silently do nothing.
    fail("op_max_retries needs a positive op_slo_ms");
  }
  // The weighted picks silently drop a share whose weight is zero, negative
  // or NaN, and an infinite weight swamps the rest.
  const auto check_weights = [&](const auto& mix, const std::string& name) {
    for (const auto& share : mix) {
      if (!(share.weight > 0.0 && std::isfinite(share.weight))) {
        fail(name + " weights must be positive and finite");
      }
    }
  };
  check_weights(t.platform_mix, "platform_mix");
  check_weights(t.workload_mix, "workload_mix");
  check_weights(t.program_mix, "program_mix");
  const auto known_program = [](int program) {
    return program >= -1 && program < builtin_program_count();
  };
  for (const ProgramShare& share : t.program_mix) {
    if (!known_program(share.program)) {
      fail("program_mix references an unknown program (use -1 for the "
           "statistical share)");
    }
  }
  if (t.tenant_count < 0) {
    fail("tenant_count must be non-negative");
  }
  // Arrival instants are int64 nanoseconds: refuse inputs that would draw
  // them negative or wrap them.
  const double rate = t.arrival_rate_per_sec;
  if (t.arrival == ArrivalPattern::kPoisson &&
      !(rate > 0.0 && std::isfinite(rate))) {
    fail("arrival_rate_per_sec must be positive and finite");
  }
  if (t.arrival != ArrivalPattern::kPoisson && t.arrival_window < 0) {
    fail("arrival_window must be non-negative");
  }
  if (t.arrival == ArrivalPattern::kRamp && t.tenant_count > 1 &&
      t.arrival_window > kMaxNanos / (t.tenant_count - 1)) {
    fail("ramp arrival_window * (tenant_count - 1) overflows int64 "
         "nanoseconds");
  }
  // Phase lengths and churn gaps are charged to tenant clocks, which refuse
  // a negative cost mid-run.
  if (t.mean_phase_duration < 0) {
    fail("mean_phase_duration must be non-negative");
  }
  if (t.churn_rounds > 0 && t.churn_gap < 0) {
    fail("churn_gap must be non-negative when churn_rounds > 0");
  }
  // The engine seeds arrivals lazily in population order and binds each
  // tenant to the platform instance its cell built for platform_mix.
  for (std::size_t i = 0; i < t.population.size(); ++i) {
    const TenantSeed& seed = t.population[i];
    if (seed.arrival < 0) {
      fail("explicit population arrivals must be non-negative");
    }
    if (i > 0 && seed.arrival < t.population[i - 1].arrival) {
      fail("explicit population must be sorted by arrival");
    }
    if (std::none_of(t.platform_mix.begin(), t.platform_mix.end(),
                     [&](const PlatformShare& share) {
                       return share.id == seed.platform_id;
                     })) {
      fail("explicit population names a platform outside platform_mix");
    }
    if (!known_program(seed.program)) {
      fail("explicit population references an unknown program");
    }
  }
}

void validate(const CellSpec& c, int initial_hosts) {
  if (c.autoscale.enabled && c.autoscale.eval_interval <= 0) {
    // A non-advancing evaluation would re-queue itself at the same instant
    // forever, ahead of every tenant event.
    throw std::invalid_argument(
        "AutoscaleSpec: eval_interval must be positive");
  }
  if (c.autoscale.enabled && c.autoscale.min_hosts < 1) {
    // Scale-in drains while more than min_hosts are live, so a lower floor
    // would drain the last live host, which explicit drains refuse to do.
    throw std::invalid_argument("AutoscaleSpec: min_hosts must be at least 1");
  }

  // Drain indices at or above this can never name a host in this scenario:
  // the initial topology plus every explicit add, with any autoscale
  // headroom making the index space unbounded (scale-out always appends).
  int adds = 0;
  for (const HostEvent& he : c.host_events) {
    adds += he.kind == HostEvent::Kind::kAdd ? 1 : 0;
  }
  const bool can_grow =
      c.autoscale.enabled && c.autoscale.max_hosts > initial_hosts;
  for (const HostEvent& he : c.host_events) {
    if (he.time < 0) {
      throw std::invalid_argument(
          "HostEvent: event time must be non-negative");
    }
    if (he.kind != HostEvent::Kind::kDrain) {
      continue;
    }
    if (he.host < -1) {
      throw std::invalid_argument(
          "HostEvent: drain host must be a host index or -1 (engine picks)");
    }
    if (!can_grow && he.host >= initial_hosts + adds) {
      throw std::invalid_argument(
          "HostEvent: drain targets host " + std::to_string(he.host) +
          " but at most " + std::to_string(initial_hosts + adds) +
          " hosts can ever exist in this scenario");
    }
  }

  const auto outside = [&](int h) { return h < 0 || h >= initial_hosts; };
  const std::string topology =
      " outside the initial topology of " + std::to_string(initial_hosts) +
      " hosts";
  for (const ClusterTopology::Rack& rack : c.cluster.racks) {
    if (rack.name.empty()) {
      throw std::invalid_argument("ClusterTopology: rack with an empty name");
    }
    if (rack.hosts.empty()) {
      throw std::invalid_argument("ClusterTopology: rack '" + rack.name +
                                  "' has no hosts");
    }
    for (const int h : rack.hosts) {
      if (outside(h)) {
        throw std::invalid_argument("ClusterTopology: rack '" + rack.name +
                                    "' references host " + std::to_string(h) +
                                    topology);
      }
    }
  }

  for (const Fault& f : c.faults) {
    if (f.time < 0) {
      throw std::invalid_argument("Fault: fault time must be non-negative");
    }
    if (f.restart_delay < 0 || f.restart_jitter < 0) {
      throw std::invalid_argument(
          "Fault: restart delay and jitter must be non-negative");
    }
    const bool windowed =
        f.kind == Fault::Kind::kPartition || is_degrade_kind(f.kind);
    if (windowed && f.duration <= 0) {
      throw std::invalid_argument(
          f.kind == Fault::Kind::kPartition
              ? "Fault: partition duration must be positive"
              : "Fault: degrade-family fault duration must be positive");
    }
    // The window's end and a crash victim's latest re-arrival are int64
    // nanoseconds; refuse schedules that would wrap them.
    if (windowed && f.duration > kMaxNanos - f.time) {
      throw std::invalid_argument(
          "Fault: time + duration overflows int64 nanoseconds");
    }
    if ((f.kind == Fault::Kind::kCrash || f.kind == Fault::Kind::kCellOutage) &&
        (f.restart_delay > kMaxNanos - f.time ||
         f.restart_jitter > kMaxNanos - f.time - f.restart_delay)) {
      throw std::invalid_argument(
          "Fault: time + restart_delay + restart_jitter overflows int64 "
          "nanoseconds");
    }
    if (f.kind == Fault::Kind::kDiskDegrade && !(f.degrade >= 1.0)) {
      throw std::invalid_argument(
          "Fault: disk degrade multiplier must be >= 1 (got " +
          std::to_string(f.degrade) + ")");
    }
    const bool pair = f.kind == Fault::Kind::kPartialPartition;
    if (pair && outside(f.peer)) {
      throw std::invalid_argument("Fault: partial partition peer " +
                                  std::to_string(f.peer) + topology);
    }
    if (f.kind == Fault::Kind::kCellOutage) {
      continue;  // the whole initial topology: host and rack are ignored
    }
    const ClusterTopology::Rack* rack = nullptr;
    if (!f.rack.empty()) {
      rack = c.cluster.rack(f.rack);
      if (rack == nullptr) {
        throw std::invalid_argument("Fault: unknown rack '" + f.rack + "'");
      }
    } else if (outside(f.host)) {
      throw std::invalid_argument("Fault: fault targets host " +
                                  std::to_string(f.host) + topology);
    }
    if (pair && (rack == nullptr ? f.host == f.peer
                                 : std::count(rack->hosts.begin(),
                                              rack->hosts.end(), f.peer) > 0)) {
      throw std::invalid_argument("Fault: partial partition pairs host " +
                                  std::to_string(f.peer) + " with itself");
    }
  }
}

std::vector<TenantSeed> TrafficSpec::draw_population() const {
  validate(*this);
  // This is the engine's historical inline draw, hoisted verbatim: ALL
  // arrival times first (then one sort), and only then each tenant's
  // platform pick, RNG fork, and phase draws off that fork. The order of
  // draws against the root rng is load-bearing — any reordering changes
  // every downstream report byte.
  sim::Rng rng(seed);
  const WeightedPick<PlatformShare> pick_platform(platform_mix);
  const WeightedPick<WorkloadShare> pick_workload(workload_mix);
  const WeightedPick<ProgramShare> pick_program(program_mix);

  std::vector<sim::Nanos> arrivals;
  arrivals.reserve(static_cast<std::size_t>(tenant_count));
  sim::Nanos poisson_t = 0;
  for (int i = 0; i < tenant_count; ++i) {
    switch (arrival) {
      case ArrivalPattern::kStorm:
        arrivals.push_back(static_cast<sim::Nanos>(
            rng.next_double() * static_cast<double>(arrival_window)));
        break;
      case ArrivalPattern::kRamp:
        arrivals.push_back(tenant_count <= 1
                               ? 0
                               : arrival_window * i / (tenant_count - 1));
        break;
      case ArrivalPattern::kPoisson: {
        // Checked in double first: the cast itself is undefined past
        // INT64_MAX.
        const double gap = rng.exponential(arrival_rate_per_sec) *
                           static_cast<double>(sim::kNanosPerSecond);
        if (!(gap < static_cast<double>(kMaxNanos)) ||
            static_cast<sim::Nanos>(gap) > kMaxNanos - poisson_t) {
          throw std::invalid_argument(
              "TrafficSpec: Poisson arrivals pass INT64_MAX nanoseconds");
        }
        poisson_t += static_cast<sim::Nanos>(gap);
        arrivals.push_back(poisson_t);
        break;
      }
    }
  }
  std::sort(arrivals.begin(), arrivals.end());

  std::vector<TenantSeed> seeds;
  seeds.reserve(static_cast<std::size_t>(tenant_count));
  for (int i = 0; i < tenant_count; ++i) {
    seeds.emplace_back();
    TenantSeed& t = seeds.back();
    t.arrival = arrivals[static_cast<std::size_t>(i)];
    t.platform_id = pick_platform(rng).id;
    t.rng = rng.fork();
    t.phases.reserve(static_cast<std::size_t>(phases_per_tenant));
    for (int p = 0; p < phases_per_tenant; ++p) {
      t.phases.push_back(pick_workload(t.rng).workload);
    }
    // The program draw comes strictly after the phase draws and only when a
    // mix is declared: all-statistical scenarios consume exactly the
    // historical draw sequence, so their reports stay byte-identical.
    if (!program_mix.empty()) {
      t.program = pick_program(t.rng).program;
    }
  }
  return seeds;
}

Scenario Scenario::coldstart_storm(int tenants) {
  Scenario s;
  s.name = "coldstart-storm";
  s.tenant_count = tenants;
  s.arrival = ArrivalPattern::kStorm;
  s.arrival_window = sim::millis(50);
  s.platform_mix = {
      {platforms::PlatformId::kDocker, 0.35},
      {platforms::PlatformId::kFirecracker, 0.30},
      {platforms::PlatformId::kGvisor, 0.20},
      {platforms::PlatformId::kOsvFirecracker, 0.15},
  };
  s.workload_mix = {{platforms::WorkloadClass::kCpu, 1.0}};
  s.phases_per_tenant = 1;
  s.mean_phase_duration = sim::millis(40);  // short function invocation
  s.guest_ram_bytes = 256ull << 20;
  s.image_bytes = 64ull << 20;
  return s;
}

Scenario Scenario::density_sweep(int max_tenants) {
  Scenario s;
  s.name = "density-sweep";
  s.tenant_count = max_tenants;
  s.arrival = ArrivalPattern::kRamp;
  s.arrival_window = sim::seconds(2);
  s.platform_mix = {
      {platforms::PlatformId::kQemuKvm, 0.5},
      {platforms::PlatformId::kFirecracker, 0.5},
  };
  s.workload_mix = {{platforms::WorkloadClass::kMemory, 1.0}};
  s.phases_per_tenant = 2;
  s.mean_phase_duration = sim::millis(400);
  s.guest_ram_bytes = 2048ull << 20;
  s.enable_ksm = true;
  s.stop_at_first_oom = true;
  return s;
}

Scenario Scenario::steady_state_mix(int tenants) {
  Scenario s;
  s.name = "steady-state-mix";
  s.tenant_count = tenants;
  s.arrival = ArrivalPattern::kPoisson;
  s.arrival_rate_per_sec = 40.0;
  // The paper's full lineup, side by side on one host.
  s.platform_mix = {
      {platforms::PlatformId::kNative, 0.05},
      {platforms::PlatformId::kDocker, 0.20},
      {platforms::PlatformId::kLxc, 0.10},
      {platforms::PlatformId::kQemuKvm, 0.10},
      {platforms::PlatformId::kFirecracker, 0.15},
      {platforms::PlatformId::kCloudHypervisor, 0.10},
      {platforms::PlatformId::kKataContainers, 0.10},
      {platforms::PlatformId::kGvisor, 0.08},
      {platforms::PlatformId::kOsvQemu, 0.07},
      {platforms::PlatformId::kOsvFirecracker, 0.05},
  };
  s.workload_mix = {
      {platforms::WorkloadClass::kCpu, 0.30},
      {platforms::WorkloadClass::kMemory, 0.20},
      {platforms::WorkloadClass::kIo, 0.25},
      {platforms::WorkloadClass::kNetwork, 0.25},
  };
  s.phases_per_tenant = 4;
  s.mean_phase_duration = sim::millis(300);
  return s;
}

Scenario Scenario::cluster_storm(int tenants, int hosts,
                                 PlacementKind placement) {
  Scenario s = coldstart_storm(tenants);
  s.name = "cluster-storm";
  // More hypervisor-backed weight than the single-host storm: placement
  // affinity only matters where guest RAM can merge.
  s.platform_mix = {
      {platforms::PlatformId::kDocker, 0.25},
      {platforms::PlatformId::kFirecracker, 0.35},
      {platforms::PlatformId::kQemuKvm, 0.20},
      {platforms::PlatformId::kOsvFirecracker, 0.20},
  };
  s.cluster.host_count = hosts;
  s.placement = placement;
  return s;
}

Scenario Scenario::autoscale_storm(int tenants, int hosts, int max_hosts) {
  Scenario s = cluster_storm(tenants, hosts, PlacementKind::kLeastPressure);
  s.name = "autoscale-storm";
  // Ramp, not storm: arrivals spread wide enough that the autoscaler's
  // evaluation cadence can add capacity while demand is still arriving.
  s.arrival = ArrivalPattern::kRamp;
  s.arrival_window = sim::millis(500);
  s.autoscale.enabled = true;
  s.autoscale.max_hosts = max_hosts;
  // Never shrink below the starting topology: without this floor the very
  // first evaluation (before load arrives) would scale the idle fleet in.
  s.autoscale.min_hosts = hosts;
  return s;
}

Scenario Scenario::crash_recovery(int tenants, int hosts, int max_hosts) {
  Scenario s = autoscale_storm(tenants, hosts, max_hosts);
  s.name = "crash-recovery";
  // RAM-tight hosts, tuned so the fixed topology rides *under* the
  // scale-out watermark on its own (the fault-free control run never
  // scales) and the crash — lost capacity plus the victim re-admission
  // surge on the survivors — pushes it over: the crash itself triggers
  // scale-out.
  const std::uint64_t per_tenant = s.guest_ram_bytes / 2 + s.image_bytes;
  s.cluster.ram_bytes = per_tenant * static_cast<std::uint64_t>(tenants) * 5 /
                        static_cast<std::uint64_t>(8 * std::max(1, hosts));
  Fault crash;
  crash.kind = Fault::Kind::kCrash;
  crash.time = sim::millis(150);  // mid-ramp: victims and fresh arrivals mix
  crash.host = 0;
  crash.restart_delay = sim::millis(25);
  crash.restart_jitter = sim::millis(50);
  s.faults.push_back(crash);
  // Declared recovery budget: every victim re-placed, p99 within 10 s.
  // The committed bench config lands around 8.7 s, so the verdict passes
  // with headroom but would trip on a recovery-path regression.
  s.replace_slo_ms = sim::seconds(10);
  return s;
}

Scenario Scenario::rack_outage(int tenants, int hosts) {
  Scenario s = cluster_storm(tenants, hosts, PlacementKind::kLeastPressure);
  s.name = "rack-outage";
  s.arrival = ArrivalPattern::kRamp;
  s.arrival_window = sim::millis(300);
  // Two failure domains: r0 takes the first half of the hosts, r1 the rest.
  ClusterTopology::Rack r0{"r0", {}};
  ClusterTopology::Rack r1{"r1", {}};
  for (int h = 0; h < hosts; ++h) {
    (h < hosts / 2 ? r0 : r1).hosts.push_back(h);
  }
  s.cluster.racks = {r0, r1};
  Fault crash;
  crash.kind = Fault::Kind::kCrash;
  crash.time = sim::millis(100);
  crash.rack = "r0";
  crash.restart_delay = sim::millis(25);
  crash.restart_jitter = sim::millis(50);
  s.faults.push_back(crash);
  return s;
}

Scenario Scenario::partition_storm(int tenants, int hosts) {
  Scenario s = cluster_storm(tenants, hosts, PlacementKind::kLeastPressure);
  s.name = "partition-storm";
  // Network-heavy phases so the partition's stall is visible in makespan
  // and phase percentiles, not just the NIC-stall counter.
  s.workload_mix = {
      {platforms::WorkloadClass::kNetwork, 0.6},
      {platforms::WorkloadClass::kCpu, 0.4},
  };
  s.phases_per_tenant = 2;
  s.mean_phase_duration = sim::millis(60);
  ClusterTopology::Rack r0{"r0", {}};
  for (int h = 0; h < (hosts + 1) / 2; ++h) {
    r0.hosts.push_back(h);
  }
  s.cluster.racks = {r0};
  Fault part;
  part.kind = Fault::Kind::kPartition;
  part.time = sim::millis(30);
  part.rack = "r0";
  part.duration = sim::millis(40);
  s.faults.push_back(part);
  return s;
}

Scenario Scenario::program_storm(int tenants, int hosts) {
  Scenario s = cluster_storm(tenants, hosts, PlacementKind::kLeastLoaded);
  s.name = "program-storm";
  s.arrival_window = sim::millis(100);
  // Most tenants interpret a built-in program; a statistical control share
  // rides along so program and phase traffic contend on the same hosts.
  s.program_mix = {
      {-1, 0.20},
      {kProgKvServer, 0.30},
      {kProgImagePull, 0.20},
      {kProgLogWriter, 0.15},
      {kProgMmapAnalytics, 0.15},
  };
  // Per-op p99 budget. The slowest built-in op — mmap-analytics faulting a
  // cold 16 MiB mapping through the NVMe — lands around 5 ms p99, so the
  // verdict passes with headroom but trips on an op-path cost regression.
  s.op_slo_ms = sim::millis(12);
  return s;
}

Scenario Scenario::degrade_storm(int tenants, int hosts) {
  Scenario s = program_storm(tenants, hosts);
  s.name = "degrade-storm";
  // RAM-tight enough that the mem-pressure resident spike and the crash
  // victims' re-admission surge actually contend for headroom — that is
  // what makes the no-retry control lose tenants.
  const std::uint64_t per_tenant = s.guest_ram_bytes / 2 + s.image_bytes;
  s.cluster.ram_bytes = per_tenant * static_cast<std::uint64_t>(tenants) * 3 /
                        static_cast<std::uint64_t>(4 * std::max(1, hosts));
  // The degrade family, timed to overlap the *program* phase (boots run
  // roughly to the 150 ms mark; interpreted ops from there to the tail).
  // Requires hosts >= 2 (the partial partition needs a pair).
  Fault disk;
  disk.kind = Fault::Kind::kDiskDegrade;
  disk.time = sim::millis(150);
  disk.host = 0;
  disk.duration = sim::millis(200);
  disk.degrade = 6.0;
  s.faults.push_back(disk);
  Fault mem;
  mem.kind = Fault::Kind::kMemPressure;
  mem.time = sim::millis(200);
  mem.host = 1;
  mem.duration = sim::millis(100);
  s.faults.push_back(mem);
  Fault pair;
  pair.kind = Fault::Kind::kPartialPartition;
  pair.time = sim::millis(150);
  pair.host = 0;
  pair.peer = 1;
  pair.duration = sim::millis(200);
  s.faults.push_back(pair);
  // A mid-pressure crash on top, on the host the degrades spared: its
  // victims must re-admit onto hosts 0/1, and whether they fit depends on
  // how much RAM the degraded ops there have already released — the retry
  // run routes around the cut, tears tenants down sooner and loses fewer.
  Fault crash;
  crash.kind = Fault::Kind::kCrash;
  crash.time = sim::millis(250);
  crash.host = 2;
  crash.restart_delay = sim::millis(25);
  crash.restart_jitter = sim::millis(50);
  s.faults.push_back(crash);
  // Retry/backoff on: ops that would blow the 12 ms budget time out and
  // re-issue (network ops redraw their peer, routing around the partial
  // partition) instead of completing late.
  s.op_max_retries = 3;
  s.op_backoff_base_ms = sim::millis(1);
  return s;
}

Scenario Scenario::churn_mix(int tenants, int rounds) {
  Scenario s = steady_state_mix(tenants);
  s.name = "churn-mix";
  s.churn_rounds = rounds;
  s.churn_gap = sim::millis(100);
  return s;
}

}  // namespace fleet
