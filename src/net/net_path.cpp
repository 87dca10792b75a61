#include "net/net_path.h"

#include <algorithm>
#include <initializer_list>
#include <vector>

namespace net {

using hostk::Syscall;

namespace {
// Per-packet functions a datapath runs outside any syscall. Callers resolve
// them once, in a function-local static: the registry is shared by every
// HostKernel, so the ids hold for any host.
std::vector<hostk::FunctionHit> background_hits(
    const hostk::KernelFunctionRegistry& reg,
    std::initializer_list<const char*> names) {
  std::vector<hostk::FunctionHit> hits;
  for (const char* name : names) {
    hits.push_back({reg.id_of(name), 1});
  }
  return hits;
}
}  // namespace

NetPath::NetPath(NetPathSpec spec, hostk::HostKernel& host)
    : spec_(std::move(spec)), host_(&host) {}

double NetPath::iperf_throughput_bps(const hostk::Nic& nic, sim::Rng& rng) const {
  // Native ceiling: serialization + amortized per-packet cost at MTU.
  const double mtu_bits = static_cast<double>(nic.spec().mtu) * 8.0;
  const double per_pkt_s =
      mtu_bits / nic.spec().line_rate_bps +
      sim::to_seconds(nic.spec().per_packet_cost);
  const double native_bps = mtu_bits / per_pkt_s;
  double bps = native_bps * spec_.throughput_efficiency;
  bps *= 1.0 + rng.normal(0.0, spec_.throughput_jitter);
  return std::max(0.0, bps);
}

sim::Nanos NetPath::round_trip(const hostk::Nic& nic, std::uint32_t payload_bytes,
                               sim::Rng& rng) const {
  sim::Nanos rtt = 0;
  // Two traversals of wire + path stack.
  for (int dir = 0; dir < 2; ++dir) {
    rtt += nic.latency(rng);
    rtt += nic.transfer_time(payload_bytes, rng);
    rtt += spec_.one_way_extra;
  }
  // Tail effects (virtio kick coalescing, Sentry wakeups) hit a minority of
  // round trips but define the p90 the paper reports.
  if (spec_.tail_extra > 0 && rng.chance(0.18)) {
    rtt += spec_.tail_extra +
           static_cast<sim::Nanos>(rng.exponential(2.0) *
                                   static_cast<double>(spec_.tail_extra) / 4.0);
  }
  return rtt;
}

void NetPath::record_traffic(std::uint64_t bytes, const hostk::Nic& nic,
                             sim::Rng& rng) const {
  if (!host_->ftrace().recording()) {
    return;
  }
  // Syscall batching: ~16 MTU packets per sendmsg at iperf3 rates (GSO).
  const std::uint64_t pkts = std::max<std::uint64_t>(1, nic.packets_for(bytes));
  const std::uint64_t batches = std::max<std::uint64_t>(1, pkts / 16);
  const auto& reg = host_->registry();
  switch (spec_.kind) {
    case PathKind::kNative:
      host_->record(Syscall::kSendto, rng, batches);
      host_->record(Syscall::kRecvfrom, rng, batches);
      break;
    case PathKind::kBridge: {
      static const auto bridge = background_hits(
          reg, {"veth_xmit", "br_handle_frame", "br_forward",
                "br_nf_pre_routing", "nf_hook_slow", "netif_rx_internal",
                "enqueue_to_backlog", "net_rx_action", "__napi_poll",
                "process_backlog"});
      host_->record(Syscall::kSendto, rng, batches);
      host_->record(Syscall::kRecvfrom, rng, batches);
      host_->record_background(bridge, pkts);
      break;
    }
    case PathKind::kTapVirtio: {
      static const auto tap = background_hits(
          reg, {"tun_get_user", "tun_net_xmit", "tap_do_read",
                "vhost_net_tx", "vhost_net_rx", "vhost_poll_queue",
                "netif_receive_skb", "napi_gro_receive"});
      // Guest kicks virtio queues (ioeventfd), host vhost thread moves
      // packets between the TAP device and the queue.
      host_->record(Syscall::kKvmIoeventfd, rng, batches);
      host_->record(Syscall::kReadv, rng, batches);   // tap read
      host_->record(Syscall::kWritev, rng, batches);  // tap write
      host_->record_background(tap, pkts);
      break;
    }
    case PathKind::kNetstack:
      // The Sentry's Netstack terminates TCP itself and forwards raw
      // packets through its TAP-like endpoint with plain read/write.
      host_->record(Syscall::kRead, rng, pkts);
      host_->record(Syscall::kWrite, rng, pkts);
      host_->record(Syscall::kEpollWait, rng, batches);
      host_->record(Syscall::kFutexWake, rng, batches);
      break;
  }
}

sim::Nanos NetPath::sender_cpu_cost(std::uint64_t bytes,
                                    const hostk::Nic& nic) const {
  const std::uint64_t pkts = nic.packets_for(bytes);
  return static_cast<sim::Nanos>(pkts) * spec_.per_packet_cpu;
}

// --- Catalog -----------------------------------------------------------
// Efficiencies are anchored to Figure 11: native 37.28 Gbit/s, OSv 36.36,
// Docker -9.84%, LXC -9.19%, QEMU = OSv/1.257, OSv-FC = FC * 1.0653,
// Cloud Hypervisor below QEMU, gVisor an extreme outlier.

NetPathSpec NetPathCatalog::native() {
  return {.name = "native",
          .kind = PathKind::kNative,
          .throughput_efficiency = 1.0,
          .throughput_jitter = 0.008,
          .one_way_extra = 0,
          .tail_extra = 0,
          .per_packet_cpu = 350};
}

NetPathSpec NetPathCatalog::docker_bridge() {
  return {.name = "docker(bridge)",
          .kind = PathKind::kBridge,
          .throughput_efficiency = 0.9016,
          .throughput_jitter = 0.012,
          .one_way_extra = sim::micros(2.0),
          .tail_extra = sim::micros(4),
          .per_packet_cpu = 450};
}

NetPathSpec NetPathCatalog::lxc_bridge() {
  return {.name = "lxc(bridge)",
          .kind = PathKind::kBridge,
          .throughput_efficiency = 0.9081,
          .throughput_jitter = 0.012,
          .one_way_extra = sim::micros(1.9),
          .tail_extra = sim::micros(4),
          .per_packet_cpu = 450};
}

NetPathSpec NetPathCatalog::qemu_tap() {
  return {.name = "qemu(tap+virtio)",
          .kind = PathKind::kTapVirtio,
          .throughput_efficiency = 0.776,
          .throughput_jitter = 0.02,
          .one_way_extra = sim::micros(11),
          .tail_extra = sim::micros(26),
          .per_packet_cpu = 700};
}

NetPathSpec NetPathCatalog::firecracker_tap() {
  return {.name = "firecracker(tap+virtio)",
          .kind = PathKind::kTapVirtio,
          .throughput_efficiency = 0.741,
          .throughput_jitter = 0.022,
          .one_way_extra = sim::micros(12),
          .tail_extra = sim::micros(28),
          .per_packet_cpu = 720};
}

NetPathSpec NetPathCatalog::cloud_hypervisor_tap() {
  return {.name = "cloud-hypervisor(tap+virtio)",
          .kind = PathKind::kTapVirtio,
          .throughput_efficiency = 0.655,
          .throughput_jitter = 0.028,
          .one_way_extra = sim::micros(16),
          .tail_extra = sim::micros(30),
          .per_packet_cpu = 760};
}

NetPathSpec NetPathCatalog::kata_bridge_tap() {
  // Bridge into the sandbox, QEMU TAP+virtio inside: throughput equals the
  // weakest link (QEMU); latency benefits from the bridge front. Small
  // request/response packets, however, traverse BOTH hops' per-packet
  // datapaths without TSO amortization — the mechanism behind Kata's
  // surprisingly low Memcached score (Finding 18).
  return {.name = "kata(bridge+tap)",
          .kind = PathKind::kTapVirtio,
          .throughput_efficiency = 0.770,
          .throughput_jitter = 0.02,
          .one_way_extra = sim::micros(2.6),
          .tail_extra = sim::micros(6),
          .per_packet_cpu = 2300};
}

NetPathSpec NetPathCatalog::gvisor_netstack() {
  // Netstack misses many throughput-critical RFC features (Finding 12:
  // p90 3-4x competitors; Figure 11: extreme outlier).
  return {.name = "gvisor(netstack)",
          .kind = PathKind::kNetstack,
          .throughput_efficiency = 0.102,
          .throughput_jitter = 0.05,
          .one_way_extra = sim::micros(38),
          .tail_extra = sim::micros(80),
          .per_packet_cpu = 2600};
}

NetPathSpec NetPathCatalog::osv_qemu() {
  // OSv's kernel-integrated virtio-net under QEMU: 36.36 Gbit/s.
  return {.name = "osv(qemu)",
          .kind = PathKind::kTapVirtio,
          .throughput_efficiency = 0.9753,
          .throughput_jitter = 0.01,
          .one_way_extra = sim::micros(8),
          .tail_extra = sim::micros(18),
          .per_packet_cpu = 520};
}

NetPathSpec NetPathCatalog::osv_firecracker() {
  // OSv under Firecracker only beats plain Firecracker by 6.53%.
  return {.name = "osv(firecracker)",
          .kind = PathKind::kTapVirtio,
          .throughput_efficiency = 0.741 * 1.0653,
          .throughput_jitter = 0.015,
          .one_way_extra = sim::micros(9),
          .tail_extra = sim::micros(20),
          .per_packet_cpu = 560};
}

}  // namespace net
