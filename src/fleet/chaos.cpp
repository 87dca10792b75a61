#include "fleet/chaos.h"

#include <algorithm>
#include <stdexcept>

#include "fleet/scenario.h"

namespace fleet {

namespace {

void validate_racks(const ClusterTopology& topo, int initial_hosts) {
  for (const ClusterTopology::Rack& rack : topo.racks) {
    if (rack.name.empty()) {
      throw std::invalid_argument("ClusterTopology: rack with an empty name");
    }
    if (rack.hosts.empty()) {
      throw std::invalid_argument("ClusterTopology: rack '" + rack.name +
                                  "' has no hosts");
    }
    for (const int h : rack.hosts) {
      if (h < 0 || h >= initial_hosts) {
        throw std::invalid_argument(
            "ClusterTopology: rack '" + rack.name + "' references host " +
            std::to_string(h) + " outside the initial topology of " +
            std::to_string(initial_hosts) + " hosts");
      }
    }
  }
}

/// One host's windows split into disjoint pieces sorted by start: a
/// boundary sweep where the worst multiplier wins inside each piece and
/// the earliest fault keeps the attribution, so verdicts stay stable under
/// reordering.
std::vector<FaultWindow> split_overlaps(const std::vector<FaultWindow>& w) {
  std::vector<sim::Nanos> cuts;
  for (const FaultWindow& d : w) {
    cuts.push_back(d.start);
    cuts.push_back(d.end);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::vector<FaultWindow> flat;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    FaultWindow piece{cuts[i], cuts[i + 1]};
    for (const FaultWindow& d : w) {
      if (d.start <= piece.start && d.end >= piece.end &&
          (piece.fault < 0 || d.multiplier > piece.multiplier)) {
        piece.multiplier = d.multiplier;
        piece.fault = d.fault;
      }
    }
    if (piece.fault < 0) {
      continue;  // gap between windows
    }
    if (!flat.empty() && flat.back().end == piece.start &&
        flat.back().multiplier == piece.multiplier &&
        flat.back().fault == piece.fault) {
      flat.back().end = piece.end;
    } else {
      flat.push_back(piece);
    }
  }
  return flat;
}

}  // namespace

std::vector<ResolvedFault> resolve_faults(const Scenario& s,
                                          int initial_hosts) {
  std::vector<ResolvedFault> out;
  if (s.faults.empty()) {
    return out;
  }
  validate_racks(s.cluster, initial_hosts);
  for (const Fault& f : s.faults) {
    if (f.time < 0) {
      throw std::invalid_argument("Fault: fault time must be non-negative");
    }
    if (f.restart_delay < 0 || f.restart_jitter < 0) {
      throw std::invalid_argument(
          "Fault: restart delay and jitter must be non-negative");
    }
    ResolvedFault r;
    r.kind = f.kind;
    r.time = f.time;
    r.restart_delay = f.restart_delay;
    r.restart_jitter = f.restart_jitter;
    if (f.kind == Fault::Kind::kPartition || is_degrade_kind(f.kind)) {
      if (f.duration <= 0) {
        throw std::invalid_argument(
            f.kind == Fault::Kind::kPartition
                ? "Fault: partition duration must be positive"
                : "Fault: degrade-family fault duration must be positive");
      }
      r.duration = f.duration;
    }
    if (f.kind == Fault::Kind::kDiskDegrade) {
      if (!(f.degrade >= 1.0)) {
        throw std::invalid_argument(
            "Fault: disk degrade multiplier must be >= 1 (got " +
            std::to_string(f.degrade) + ")");
      }
      r.degrade = f.degrade;
    }
    if (f.kind == Fault::Kind::kPartialPartition) {
      if (f.peer < 0 || f.peer >= initial_hosts) {
        throw std::invalid_argument(
            "Fault: partial partition peer " + std::to_string(f.peer) +
            " outside the initial topology of " +
            std::to_string(initial_hosts) + " hosts");
      }
      r.peer = f.peer;
    }
    if (f.kind == Fault::Kind::kCellOutage) {
      // The whole failure domain goes dark at once: every host of the
      // initial topology. Host/rack targeting is ignored by design —
      // the cell IS the target.
      r.hosts.resize(static_cast<std::size_t>(initial_hosts));
      for (int h = 0; h < initial_hosts; ++h) {
        r.hosts[static_cast<std::size_t>(h)] = h;
      }
      out.push_back(std::move(r));
      continue;
    }
    if (!f.rack.empty()) {
      const ClusterTopology::Rack* rack = nullptr;
      for (const ClusterTopology::Rack& candidate : s.cluster.racks) {
        if (candidate.name == f.rack) {
          rack = &candidate;
          break;
        }
      }
      if (rack == nullptr) {
        throw std::invalid_argument("Fault: unknown rack '" + f.rack + "'");
      }
      r.rack = f.rack;
      r.hosts = rack->hosts;
    } else {
      if (f.host < 0 || f.host >= initial_hosts) {
        throw std::invalid_argument(
            "Fault: fault targets host " + std::to_string(f.host) +
            " outside the initial topology of " +
            std::to_string(initial_hosts) + " hosts");
      }
      r.hosts = {f.host};
    }
    if (f.kind == Fault::Kind::kPartialPartition) {
      for (const int h : r.hosts) {
        if (h == r.peer) {
          throw std::invalid_argument(
              "Fault: partial partition pairs host " + std::to_string(h) +
              " with itself");
        }
      }
    }
    out.push_back(std::move(r));
  }

  // Injection order = time order, stable so same-instant faults keep their
  // authoring order. Ids follow, so the event stream pops faults in id
  // order and each report section lists its verdicts in id order.
  std::stable_sort(out.begin(), out.end(),
                   [](const ResolvedFault& a, const ResolvedFault& b) {
                     return a.time < b.time;
                   });
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].id = static_cast<int>(i);
  }
  return out;
}

void validate_host_events(const Scenario& s, int initial_hosts) {
  // Indices at or above this can never name a host in this scenario: the
  // initial topology plus every explicit add, with any autoscale headroom
  // making the index space unbounded (scale-out always appends).
  int adds = 0;
  for (const HostEvent& he : s.host_events) {
    adds += he.kind == HostEvent::Kind::kAdd ? 1 : 0;
  }
  const bool can_grow =
      s.autoscale.enabled && s.autoscale.max_hosts > initial_hosts;
  for (const HostEvent& he : s.host_events) {
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
}

std::vector<std::vector<FaultWindow>> build_windows(
    const std::vector<ResolvedFault>& faults, int initial_hosts,
    Fault::Kind kind) {
  std::vector<std::vector<FaultWindow>> windows;
  if (std::none_of(faults.begin(), faults.end(),
                   [kind](const ResolvedFault& f) { return f.kind == kind; })) {
    return windows;  // empty: fault-free paths stay zero-cost
  }
  const bool pair = kind == Fault::Kind::kPartialPartition;
  windows.resize(static_cast<std::size_t>(initial_hosts));
  for (const ResolvedFault& f : faults) {
    if (f.kind != kind) {
      continue;
    }
    FaultWindow w{f.time, f.time + f.duration};
    w.fault = f.id;
    if (kind == Fault::Kind::kDiskDegrade) {
      w.multiplier = f.degrade;
    }
    for (const int h : f.hosts) {
      if (!pair) {
        windows[static_cast<std::size_t>(h)].push_back(w);
        continue;
      }
      // Both directions: the cut is symmetric, so an op on either side
      // stalls when its drawn far end is across the cut.
      w.peer = f.peer;
      windows[static_cast<std::size_t>(h)].push_back(w);
      w.peer = h;
      windows[static_cast<std::size_t>(f.peer)].push_back(w);
    }
  }
  for (auto& w : windows) {
    if (!pair) {
      w = split_overlaps(w);
      continue;
    }
    // Pair cuts stay one window per fault: cuts to different peers may
    // overlap because the completion filters by peer, and overlapping cuts
    // of one pair are all frozen, which the completion walks as they are.
    std::sort(w.begin(), w.end(),
              [](const FaultWindow& a, const FaultWindow& b) {
                return a.start != b.start ? a.start < b.start
                                          : a.peer < b.peer;
              });
  }
  return windows;
}

sim::Nanos stretched_completion(const std::vector<FaultWindow>& windows,
                                sim::Nanos start, sim::Nanos work, int peer,
                                int* fault) {
  if (fault != nullptr) {
    *fault = -1;
  }
  sim::Nanos at = start;
  sim::Nanos left = work;
  for (const FaultWindow& w : windows) {
    if (w.peer != peer || w.end <= at) {
      continue;  // another pair's cut, or already past this window
    }
    const sim::Nanos gap = w.start > at ? w.start - at : 0;
    if (gap >= left) {
      break;  // finishes before the next window opens
    }
    left -= gap;
    at += gap;
    if (fault != nullptr && *fault < 0 && w.multiplier > 1.0) {
      *fault = w.fault;
    }
    // The span until w.end completes span/multiplier worth of work: none
    // at all in a frozen window, which can therefore never finish inside.
    const sim::Nanos span = w.end - at;
    const sim::Nanos can = static_cast<sim::Nanos>(
        static_cast<double>(span) / w.multiplier);
    if (left <= can) {
      return at + static_cast<sim::Nanos>(static_cast<double>(left) *
                                          w.multiplier);
    }
    left -= can;
    at = w.end;
  }
  return at + left;
}

}  // namespace fleet
