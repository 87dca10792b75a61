// Deterministic priority event queue for the fleet scenario engine.
//
// The engine models N concurrent tenant lifecycles on one shared host by
// merging their per-tenant timelines into a single global ordering. Events
// are popped in (time, sequence) order; the sequence number makes ties
// deterministic (FIFO among simultaneous events), which the fleet report's
// byte-identical-output guarantee depends on.
//
// The queue is a monotone radix heap over 32-byte events. Its keys only
// move forward: the engine handles each popped event at that event's
// instant and schedules what follows at that instant or later (a
// completion at the tenant's clock, the next lazily seeded arrival in
// sorted arrival order, a crash re-arrival after its restart delay), so
// no push lands before the last popped time. A push that would throws
// std::logic_error.
//
// Monotone keys allow 65 buckets in place of a comparison heap. An event
// goes in the bucket of the highest bit in which its time differs from
// the last popped instant (bucket 0: the same instant). A pop drains
// bucket 0 in seq order; when it is empty, the lowest non-empty bucket's
// earliest time becomes the popped instant and that bucket's events move
// to strictly lower buckets. An event therefore moves at most 64 times,
// and a push or a pop does no comparison walk: isobench's push/pop
// primitive (fleet.event_queue.push_pop_ns) reads ~60 ns, a 4-ary
// (time, seq) heap ~140 ns (Release, gcc 12, 4-core VM).
//
// The buckets keep their capacity, which can add up to a few times the
// queue's peak depth. FleetEngine::run releases its drained queue before
// it assembles the report, so that capacity never stands beside the
// report's sample sets at the run's peak memory.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
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
  /// ascending arrival order guarantees this). Throws std::logic_error if
  /// `time` is before the last popped event's time.
  void push_at_seq(sim::Nanos time, std::uint64_t seq, std::uint64_t tenant,
                   EventKind kind, std::uint32_t epoch = 0) {
    const std::uint64_t k = key(time);
    if (k < last_) {
      throw std::logic_error(
          "EventQueue: push before the last popped event's time");
    }
    const Event e{time, seq, tenant, kind, epoch};
    ++size_;
    const int b = bucket(k);
    if (b > 0) {
      buckets_[b].push_back(e);
      nonempty_ |= bit(b);
      return;
    }
    // The popped instant's bucket stays in seq order from head_. push()
    // stamps the largest seq yet, so it appends; a lazily seeded arrival
    // carries a reserved, smaller seq and usually takes the slot its
    // predecessor was just popped from.
    std::vector<Event>& now = buckets_[0];
    if (now.empty() || now.back().seq < seq) {
      now.push_back(e);
    } else if (head_ > 0 && seq < now[head_].seq) {
      now[--head_] = e;
    } else {
      now.insert(std::upper_bound(now.begin() + static_cast<std::ptrdiff_t>(
                                                    head_),
                                  now.end(), e, by_seq),
                 e);
    }
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Removes and returns the earliest event. Requires !empty().
  Event pop() {
    if (buckets_[0].empty()) {
      refill();
    }
    const Event e = buckets_[0][head_];
    --size_;
    if (++head_ == buckets_[0].size()) {
      buckets_[0].clear();
      head_ = 0;
    }
    return e;
  }

 private:
  static constexpr int kBuckets = 65;

  /// Times as unsigned keys in the same order (INT64_MIN maps to 0), so
  /// the queue takes any time before its first pop.
  static std::uint64_t key(sim::Nanos t) {
    return static_cast<std::uint64_t>(t) ^ (std::uint64_t{1} << 63);
  }
  static std::uint64_t bit(int b) { return std::uint64_t{1} << (b - 1); }
  static bool by_seq(const Event& a, const Event& b) { return a.seq < b.seq; }

  /// 0 for the popped instant, else one more than the index of the highest
  /// bit in which `k` differs from it.
  int bucket(std::uint64_t k) const {
    const std::uint64_t diff = k ^ last_;
    return diff == 0 ? 0 : 64 - __builtin_clzll(diff);
  }

  /// Makes the earliest queued time the popped instant. Requires bucket 0
  /// empty and some other bucket not.
  void refill() {
    const int b = __builtin_ctzll(nonempty_) + 1;
    std::vector<Event>& from = buckets_[b];
    std::uint64_t earliest = key(from.front().time);
    for (const Event& e : from) {
      earliest = std::min(earliest, key(e.time));
    }
    last_ = earliest;
    nonempty_ &= ~bit(b);
    for (const Event& e : from) {
      const int to = bucket(key(e.time));
      buckets_[to].push_back(e);
      if (to > 0) {
        nonempty_ |= bit(to);
      }
    }
    from.clear();
    std::sort(buckets_[0].begin(), buckets_[0].end(), by_seq);
  }

  std::array<std::vector<Event>, kBuckets> buckets_;
  std::size_t head_ = 0;        // next event to pop in buckets_[0]
  std::uint64_t last_ = 0;      // key of the last popped instant
  std::uint64_t nonempty_ = 0;  // bit b - 1 set iff buckets_[b] is not empty
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace fleet
