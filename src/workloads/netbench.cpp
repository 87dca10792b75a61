#include "workloads/netbench.h"

#include <algorithm>

namespace workloads {

Iperf3::Iperf3(int runs, sim::Nanos run_duration)
    : runs_(runs), run_duration_(run_duration) {}

Iperf3Result Iperf3::run(platforms::Platform& platform, sim::Clock& clock,
                         sim::Rng& rng) const {
  Iperf3Result result;
  auto& nic = platform.host().nic();
  for (int i = 0; i < runs_; ++i) {
    const double bps = platform.net().iperf_throughput_bps(nic, rng);
    result.runs_gbps.add(bps / 1e9);
    clock.advance(run_duration_);
    // HAP-visible traffic for the bytes actually moved in this run.
    platform.net().record_traffic(
        static_cast<std::uint64_t>(bps / 8.0 * sim::to_seconds(run_duration_)),
        nic, rng);
  }
  result.max_gbps = result.runs_gbps.percentile(100);
  result.mean_gbps = result.runs_gbps.summary().mean();
  return result;
}

Netperf::Netperf(int transactions, std::uint32_t payload)
    : transactions_(transactions), payload_(payload) {}

NetperfResult Netperf::run(platforms::Platform& platform, sim::Clock& clock,
                           sim::Rng& rng) const {
  NetperfResult result;
  auto& nic = platform.host().nic();
  for (int i = 0; i < transactions_; ++i) {
    const sim::Nanos rtt = platform.net().round_trip(nic, payload_, rng);
    result.rtts_us.add(sim::to_micros(rtt));
    clock.advance(rtt);
  }
  const auto [p50, p90, p99] = result.rtts_us.percentiles({50, 90, 99});
  result.p50_us = p50;
  result.p90_us = p90;
  result.p99_us = p99;
  return result;
}

}  // namespace workloads
