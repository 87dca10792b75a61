#include "fleet/chaos.h"

#include <algorithm>

#include "fleet/scenario.h"

namespace fleet {

namespace {

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

std::vector<ResolvedFault> resolve_faults(const CellSpec& cell,
                                          int initial_hosts) {
  std::vector<ResolvedFault> out;
  for (const Fault& f : cell.faults) {
    ResolvedFault r;
    r.kind = f.kind;
    r.time = f.time;
    r.restart_delay = f.restart_delay;
    r.restart_jitter = f.restart_jitter;
    if (f.kind == Fault::Kind::kPartition || is_degrade_kind(f.kind)) {
      r.duration = f.duration;
    }
    if (f.kind == Fault::Kind::kDiskDegrade) {
      r.degrade = f.degrade;
    }
    if (f.kind == Fault::Kind::kPartialPartition) {
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
    } else if (!f.rack.empty()) {
      r.rack = f.rack;
      r.hosts = cell.cluster.rack(f.rack)->hosts;
    } else {
      r.hosts = {f.host};
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
