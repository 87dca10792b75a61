// Deterministic priority event queue for the fleet scenario engine.
//
// The engine models N concurrent tenant lifecycles on one shared host by
// merging their per-tenant timelines into a single global ordering. Events
// are popped in (time, sequence) order; the sequence number makes ties
// deterministic (FIFO among simultaneous events), which the fleet report's
// byte-identical-output guarantee depends on.
//
// Events sharing a timestamp are batched: the binary heap orders *batches*
// (one per distinct timestamp currently queued), and each batch drains its
// events in push order. A 10k-tenant storm where admissions, boot
// completions and teardowns pile up on the same instants then pays one heap
// operation per timestamp instead of one per event, and batch storage is
// recycled so steady-state churn does not allocate.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/time.h"

namespace fleet {

enum class EventKind {
  kArrival,        // tenant requests admission and starts booting
  kBootPhys,       // deferred boot physics: sampling + image pull on the
                   //   admitted shard (cluster-capable runs only; plain
                   //   single-host runs boot inline at the arrival)
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
    const auto [it, inserted] = open_.try_emplace(time, 0u);
    if (inserted) {
      it->second = alloc_batch(time, seq);
      heap_.push_back(it->second);
      sift_up(heap_.size() - 1);
    }
    Batch& b = batches_[it->second];
    // Reserved seqs can be smaller than ones already queued at this
    // timestamp: keep the pending tail of the batch sorted by seq.
    if (b.items.empty() || b.items.back().seq < seq) {
      b.items.push_back(Item{seq, tenant, kind, epoch});
    } else {
      auto pos = b.items.begin() + static_cast<std::ptrdiff_t>(b.cursor);
      while (pos != b.items.end() && pos->seq < seq) {
        ++pos;
      }
      b.items.insert(pos, Item{seq, tenant, kind, epoch});
    }
    ++size_;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Earliest event without removing it. Requires !empty().
  Event top() const {
    const Batch& b = batches_[heap_.front()];
    const Item& item = b.items[b.cursor];
    return Event{b.time, item.seq, item.tenant, item.kind, item.epoch};
  }

  Event pop() {
    const std::uint32_t id = heap_.front();
    Batch& b = batches_[id];
    const Item item = b.items[b.cursor++];
    const Event e{b.time, item.seq, item.tenant, item.kind, item.epoch};
    --size_;
    if (b.cursor == b.items.size()) {
      // Batch drained: retire it. A later push at the same timestamp simply
      // opens a fresh batch, which still pops in seq order.
      open_.erase(b.time);
      pop_root();
      free_.push_back(id);
    }
    return e;
  }

 private:
  struct Item {
    std::uint64_t seq;
    std::uint64_t tenant;
    EventKind kind;
    std::uint32_t epoch;
  };

  /// All events queued for one exact timestamp, in push (= seq) order.
  /// cursor marks how far the front batch has drained.
  struct Batch {
    sim::Nanos time = 0;
    std::uint64_t first_seq = 0;
    std::size_t cursor = 0;
    std::vector<Item> items;
  };

  std::uint32_t alloc_batch(sim::Nanos time, std::uint64_t first_seq) {
    std::uint32_t id;
    if (!free_.empty()) {
      id = free_.back();
      free_.pop_back();
      batches_[id].items.clear();  // keeps capacity: no steady-state allocs
    } else {
      id = static_cast<std::uint32_t>(batches_.size());
      batches_.emplace_back();
    }
    batches_[id].time = time;
    batches_[id].first_seq = first_seq;
    batches_[id].cursor = 0;
    return id;
  }

  /// Min-heap order over batches: (time, first_seq). A timestamp maps to at
  /// most one open batch, so first_seq ties only occur between a drained
  /// batch's successor and unrelated timestamps — never ambiguously.
  bool before(std::uint32_t a, std::uint32_t b) const {
    const Batch& x = batches_[a];
    const Batch& y = batches_[b];
    if (x.time != y.time) {
      return x.time < y.time;
    }
    return x.first_seq < y.first_seq;
  }

  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(heap_[i], heap_[parent])) {
        break;
      }
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void pop_root() {
    heap_.front() = heap_.back();
    heap_.pop_back();
    std::size_t i = 0;
    const std::size_t n = heap_.size();
    while (true) {
      const std::size_t l = 2 * i + 1;
      const std::size_t r = l + 1;
      std::size_t best = i;
      if (l < n && before(heap_[l], heap_[best])) {
        best = l;
      }
      if (r < n && before(heap_[r], heap_[best])) {
        best = r;
      }
      if (best == i) {
        break;
      }
      std::swap(heap_[i], heap_[best]);
      i = best;
    }
  }

  std::vector<Batch> batches_;          // indexed by batch id
  std::vector<std::uint32_t> free_;     // retired batch ids for reuse
  std::vector<std::uint32_t> heap_;     // batch ids, min-heap by before()
  std::unordered_map<sim::Nanos, std::uint32_t> open_;  // time -> open batch
  std::uint64_t next_seq_ = 0;
  std::size_t size_ = 0;
};

}  // namespace fleet
