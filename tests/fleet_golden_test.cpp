// Golden-output regression test for the fleet engine.
//
// The byte-identical to_text() guarantee is the contract every perf
// optimization in the engine, KSM, and page cache must preserve. These
// goldens were captured from the pre-optimization engine (PR 1, commit
// 1055723) for the three built-in scenarios at their default sizes; any
// diff here means an optimization changed simulation *behavior*, not just
// its speed. Trailing spaces in the table rows are significant.
#include <gtest/gtest.h>

#include "fleet/cluster.h"
#include "fleet/scenario.h"

namespace {

/// One run on a fresh 1-host cluster (the built-ins' topology).
std::string run_fresh_text(const fleet::Scenario& s) {
  return fleet::Cluster(s.cluster).run(s).to_text();
}

constexpr const char* kColdstartStorm = R"GOLD(scenario: coldstart-storm (seed 17433000876150095873)
tenants: 64 admitted, 0 rejected, 64 completed; peak active 64
makespan: 516.75 ms; peak CPU demand 1.00x host threads; peak resident 6.7 GiB
ksm: 3200 pages advised -> 1408 backing (gain 2.27x, 59.4% cross-tenant shared)
host page cache: 983040 hits, 65536 misses; nvme read 256.0 MiB
fleet HAP: 301 distinct host fns, 346660 invocations, extended HAP 34.06

platform     tenants  boot p50 (ms)  boot p90 (ms)  boot p99 (ms)  phase p50 (ms)
---------------------------------------------------------------------------------
docker-oci   30       80.01          94.40          102.63         35.16         
firecracker  15       354.90         408.78         409.83         41.89         
gvisor       9        141.49         168.09         171.59         44.19         
osv-fc       10       80.24          88.23          95.39          36.54         
)GOLD";

constexpr const char* kDensitySweep = R"GOLD(scenario: density-sweep (seed 17433000876150095873)
tenants: 192 admitted, 0 rejected, 192 completed; peak active 127
makespan: 3999.56 ms; peak CPU demand 1.28x host threads; peak resident 164.7 GiB
ksm: 130048 pages advised -> 76940 backing (gain 1.69x, 41.2% cross-tenant shared)
host page cache: 6225920 hits, 65536 misses; nvme read 256.0 MiB
fleet HAP: 290 distinct host fns, 4287792 invocations, extended HAP 32.71

platform     tenants  boot p50 (ms)  boot p90 (ms)  boot p99 (ms)  phase p50 (ms)
---------------------------------------------------------------------------------
firecracker  88       388.52         457.80         513.10         510.46        
qemu-kvm     104      282.43         334.40         349.68         464.27        
)GOLD";

constexpr const char* kSteadyStateMix = R"GOLD(scenario: steady-state-mix (seed 17433000876150095873)
tenants: 48 admitted, 0 rejected, 48 completed; peak active 36
makespan: 2986.08 ms; peak CPU demand 0.49x host threads; peak resident 8.7 GiB
ksm: 4608 pages advised -> 2327 backing (gain 1.98x, 58.4% cross-tenant shared)
host page cache: 1359872 hits, 589824 misses; nvme read 2304.0 MiB
fleet HAP: 350 distinct host fns, 17507726 invocations, extended HAP 39.29

platform          tenants  boot p50 (ms)  boot p90 (ms)  boot p99 (ms)  phase p50 (ms)
--------------------------------------------------------------------------------------
cloud-hypervisor  6        141.16         156.40         166.56         215.79        
docker-oci        17       83.64          108.12         124.52         68.13         
firecracker       2        366.75         398.21         405.30         283.70        
gvisor            3        155.28         181.46         187.35         90.75         
kata-containers   3        636.29         641.06         642.13         167.97        
lxc               9        875.84         955.20         971.77         180.15        
native            1        44.30          44.30          44.30          125.42        
osv               3        185.44         210.90         216.63         169.89        
osv-fc            1        117.22         117.22         117.22         328.61        
qemu-kvm          3        282.83         311.08         317.43         108.66        
)GOLD";

TEST(FleetGoldenTest, ColdstartStormMatchesPreOptimizationEngine) {
  EXPECT_EQ(run_fresh_text(fleet::Scenario::coldstart_storm()),
            kColdstartStorm);
}

TEST(FleetGoldenTest, DensitySweepMatchesPreOptimizationEngine) {
  EXPECT_EQ(run_fresh_text(fleet::Scenario::density_sweep()), kDensitySweep);
}

TEST(FleetGoldenTest, SteadyStateMixMatchesPreOptimizationEngine) {
  EXPECT_EQ(run_fresh_text(fleet::Scenario::steady_state_mix()),
            kSteadyStateMix);
}

}  // namespace
