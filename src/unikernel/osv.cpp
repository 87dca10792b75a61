#include "unikernel/osv.h"

#include "sim/distribution.h"

namespace unikernel {

using sim::DurationDist;
using sim::millis;

sim::Nanos ElfLinker::call_cost(sim::Rng& rng) const {
  // A resolved PLT call into the OSv kernel: tens of nanoseconds, versus
  // hundreds for a real user->kernel mode switch.
  return DurationDist::lognormal(sim::nanos(28), 0.15).sample(rng);
}

core::BootTimeline ElfLinker::link_timeline(const AppImage& app) const {
  core::BootTimeline t;
  const double map_ms =
      static_cast<double>(app.binary_bytes) / (1 << 20) * 0.35;
  t.stage("osv:map-executable",
          DurationDist::lognormal(millis(std::max(map_ms, 0.2)), 0.2));
  t.stage("osv:resolve-symbols", DurationDist::lognormal(millis(2.6), 0.2));
  return t;
}

core::CpuProfile OsvScheduler::cpu_profile() const {
  core::CpuProfile p;
  p.scalar_factor = 1.0;   // Finding 1: prime check is on par everywhere
  p.simd_factor = 1.06;    // experimental platform SIMD handling
  p.sched_alpha = 0.034;   // custom scheduler degrades with threads
  p.futex_cost_factor = 4.2;  // custom mutex/thread primitives
  return p;
}

}  // namespace unikernel
