// Shared-filesystem protocols between sandbox and host: 9p and virtio-fs.
//
// Secure containers pass the container's root filesystem into the sandbox
// through a shared file system. The paper (Findings 7 & 8) attributes their
// poor I/O to the 9p protocol (one synchronous message round trip per
// operation, Twalk/Topen/Tread message chatter) and shows virtio-fs (FUSE
// over virtio, DAX-mapped) to be on par with plain QEMU virtio-blk.
#pragma once

#include <cstdint>
#include <string>

#include "sim/rng.h"
#include "sim/time.h"

namespace storage {

enum class SharedFsProtocol { kNone, kNineP, kVirtioFs };

std::string shared_fs_name(SharedFsProtocol p);

/// Message-cost model of a shared filesystem transport.
class SharedFs {
 public:
  /// Build the cost model for a protocol with default parameters.
  static SharedFs make(SharedFsProtocol protocol);

  SharedFsProtocol protocol() const { return protocol_; }

  /// Number of protocol round trips for one read/write of `bytes`
  /// (9p fragments payloads at msize; virtio-fs uses scatter-gather DMA).
  std::uint64_t round_trips(std::uint64_t bytes) const;

  /// Latency added by the protocol for one operation of `bytes`.
  sim::Nanos op_latency(std::uint64_t bytes, sim::Rng& rng) const;

 private:
  SharedFs(SharedFsProtocol protocol, std::uint64_t msize,
           sim::Nanos rt_latency, double rt_sigma, double bandwidth_cap);

  SharedFsProtocol protocol_;
  std::uint64_t msize_;       // max payload per protocol message
  sim::Nanos rt_latency_;     // one message round trip
  double rt_sigma_;
  /// Throughput ceiling imposed by the protocol, bytes/s (the reason
  /// Figure 9 shows secure containers at half of native).
  double bandwidth_cap_;
};

}  // namespace storage
