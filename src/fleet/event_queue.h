// Deterministic priority event queue for the fleet scenario engine.
//
// The engine models N concurrent tenant lifecycles on one shared host by
// merging their per-tenant timelines into a single global ordering. Events
// are popped in (time, sequence) order; the sequence number makes ties
// deterministic (FIFO among simultaneous events), which the fleet report's
// byte-identical-output guarantee depends on.
//
// The queue is one flat 4-ary min-heap of 32-byte events keyed on
// (time, seq). Events rarely share an instant while both are queued: on the
// benchmark's 100k-tenant storm only 221 of 500,000 pushes land on a
// timestamp that is already queued. Grouping events per timestamp would
// cost a hash lookup on nearly every push and pop and save nothing. Four
// children per node halve a binary heap's depth, and a pop's sift-down
// compares siblings that sit next to each other in memory.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace fleet {

enum class EventKind {
  kArrival,        // tenant requests admission and starts booting
  kBootPhys,       // boot physics: sampling + image pull on the admitted
                   //   shard, at the admitting arrival's instant
  kBootDone,       // boot sequence finished; workload phases begin
  kPhaseDone,      // one workload phase finished
  kProgramStep,    // one syscall-program op finished (program-mix tenants)
  kTeardown,       // tenant released its resources
  kHostEvent,      // timed operator hook: add or drain a host (tenant field
                   //   indexes Scenario::host_events)
  kAutoscaleEval,  // periodic watermark evaluation (tenant field unused)
  kHostCrash,      // fault injection: a host (or rack) dies; tenant field
                   //   indexes the run's resolved fault schedule (chaos.h)
  kPartitionStart,  // network partition opens on the fault's hosts
  kPartitionEnd,    // ...and heals; a no-op marker, stall is precomputed
  kDegradeStart,    // degrade-family fault opens (disk degrade, memory
                    //   pressure, partial partition); tenant field indexes
                    //   the resolved fault schedule like kHostCrash
  kDegradeEnd,      // ...and ends; memory pressure re-merges (KSM scan)
                    //   here — disk/pair stretch is precomputed per window
};

struct Event {
  sim::Nanos time = 0;
  std::uint64_t seq = 0;  // global issue order, breaks time ties
  std::uint64_t tenant = 0;
  EventKind kind = EventKind::kArrival;
  /// Tenant lifecycle generation. A host drain migrates its tenants by
  /// bumping their epoch and re-injecting arrivals; already-queued events
  /// carrying the old epoch are popped and discarded, deterministically.
  std::uint32_t epoch = 0;
};

/// Pops events in (time, seq) order; push() stamps the sequence number.
class EventQueue {
 public:
  void push(sim::Nanos time, std::uint64_t tenant, EventKind kind,
            std::uint32_t epoch = 0) {
    push_at_seq(time, next_seq_++, tenant, kind, epoch);
  }

  /// Reserve `n` consecutive sequence numbers and return the first. The
  /// engine pre-assigns arrival seqs with this so arrivals seeded lazily
  /// (one step ahead of the cursor) keep the exact same-timestamp tie
  /// order an eagerly seeded queue would have had.
  std::uint64_t reserve_seqs(std::uint64_t n) {
    const std::uint64_t base = next_seq_;
    next_seq_ += n;
    return base;
  }

  /// Push with a seq obtained from reserve_seqs(). The seq must be larger
  /// than every already-popped event's seq at this timestamp (the engine's
  /// ascending arrival order guarantees this).
  void push_at_seq(sim::Nanos time, std::uint64_t seq, std::uint64_t tenant,
                   EventKind kind, std::uint32_t epoch = 0) {
    const Event e{time, seq, tenant, kind, epoch};
    // Move a hole up from the new leaf until e is not before its parent.
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(e, heap_[parent])) {
        break;
      }
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Earliest event without removing it. Requires !empty().
  Event top() const { return heap_.front(); }

  Event pop() {
    const Event e = heap_.front();
    const Event last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) {
      return e;
    }
    // Sink a hole from the root, pulling the earliest child up, until the
    // last event fits in it.
    std::size_t i = 0;
    while (true) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) {
        break;
      }
      std::size_t best = first;
      const std::size_t end = std::min(first + kArity, n);
      for (std::size_t c = first + 1; c < end; ++c) {
        if (before(heap_[c], heap_[best])) {
          best = c;
        }
      }
      if (!before(heap_[best], last)) {
        break;
      }
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
    return e;
  }

 private:
  static constexpr std::size_t kArity = 4;

  /// Lexicographic (time, seq): seqs are unique, so this is a total order
  /// and the pop sequence is fully determined.
  static bool before(const Event& a, const Event& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  std::vector<Event> heap_;  // min-heap by before()
  std::uint64_t next_seq_ = 0;
};

}  // namespace fleet
