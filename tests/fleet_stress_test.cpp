// Stress tests for EventQueue's (time, seq) contract: events pop in global
// time order, and events sharing a timestamp pop in seq order (FIFO for
// push(); reserved seqs from push_at_seq() slot in by seq). 100k-event
// storms with heavy timestamp collisions, interleaved push/pop around
// partly drained instants (with times on the radix heap's bucket edges),
// and the engine's lazy arrival seeding are each checked against that
// contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <queue>
#include <random>
#include <vector>

#include "fleet/event_queue.h"

namespace {

using fleet::Event;
using fleet::EventKind;
using fleet::EventQueue;

TEST(EventQueueStressTest, HundredThousandEventsPopInTimeThenFifoOrder) {
  // Draw times from a small set so thousands of events share each instant.
  constexpr int kEvents = 100'000;
  constexpr int kDistinctTimes = 64;
  EventQueue q;
  std::mt19937 rng(42);
  for (int i = 0; i < kEvents; ++i) {
    const auto t = sim::millis(static_cast<double>(rng() % kDistinctTimes));
    q.push(t, static_cast<std::uint64_t>(i), EventKind::kArrival);
  }
  ASSERT_EQ(q.size(), static_cast<std::size_t>(kEvents));

  sim::Nanos last_time = -1;
  std::uint64_t last_seq_in_batch = 0;
  int popped = 0;
  while (!q.empty()) {
    const Event e = q.pop();
    ASSERT_GE(e.time, last_time);
    if (e.time == last_time) {
      // FIFO among simultaneous events: seq strictly increases among events
      // sharing a timestamp (seq == push order == tenant id here).
      ASSERT_GT(e.seq, last_seq_in_batch);
      ASSERT_GT(e.tenant, last_seq_in_batch);
    }
    last_time = e.time;
    last_seq_in_batch = e.seq;
    ++popped;
  }
  EXPECT_EQ(popped, kEvents);
}

TEST(EventQueueStressTest, InterleavedPushPopMatchesReferenceHeap) {
  // Differential check against a plain (time, seq) priority queue, with
  // pushes landing on an instant that is partly drained (the time of the
  // event just popped): they must pop after every event already popped or
  // queued at that time, in push order. Every push lands at or after that
  // instant, as in the engine. Half the pushes draw a radix bucket edge
  // (0, 1, 2^k - 1, 2^k and 2^k + 1 for k up to 62, and the last values
  // below INT64_MAX), as an absolute time or as a gap after the instant.
  const sim::Nanos max = std::numeric_limits<sim::Nanos>::max();
  std::vector<sim::Nanos> edges = {0, 1};
  for (int k = 1; k <= 62; ++k) {
    const sim::Nanos p = sim::Nanos{1} << k;
    edges.insert(edges.end(), {p - 1, p, p + 1});
  }
  for (sim::Nanos d = 3; d >= 0; --d) {
    edges.push_back(max - d);
  }
  const auto after = [max](sim::Nanos t, sim::Nanos gap) {
    return gap <= max - t ? t + gap : max;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };
  EventQueue q;
  std::priority_queue<Event, std::vector<Event>, Later> ref;
  std::mt19937 rng(7);
  std::uint64_t ref_seq = 0;
  const auto push_both = [&](sim::Nanos t, std::uint64_t tenant) {
    q.push(t, tenant, EventKind::kPhaseDone);
    ref.push(Event{t, ref_seq++, tenant, EventKind::kPhaseDone});
  };

  sim::Nanos now = 0;
  int on_now = 0;
  for (int round = 0; round < 40'000; ++round) {
    if (ref.empty() || rng() % 3 != 0) {
      // Schedule at or after "now", frequently colliding exactly on it.
      const sim::Nanos edge = edges[rng() % edges.size()];
      const unsigned pick = rng() % 4;
      const sim::Nanos t = pick == 0   ? now
                           : pick == 1 ? after(now, sim::nanos(rng() % 50))
                           : pick == 2 ? std::max(now, edge)
                                       : after(now, edge);
      on_now += t == now ? 1 : 0;
      push_both(t, rng() % 1000);
    } else {
      ASSERT_EQ(q.size(), ref.size());
      const Event expected = ref.top();
      ref.pop();
      const Event got = q.pop();
      ASSERT_EQ(got.time, expected.time);
      ASSERT_EQ(got.seq, expected.seq);
      ASSERT_EQ(got.tenant, expected.tenant);
      now = got.time;
    }
  }
  while (!ref.empty()) {
    const Event expected = ref.top();
    ref.pop();
    const Event got = q.pop();
    ASSERT_EQ(got.time, expected.time);
    ASSERT_EQ(got.seq, expected.seq);
    ASSERT_EQ(got.tenant, expected.tenant);
    now = got.time;
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(now, max);  // the draws reached the top of the range
  EXPECT_GT(on_now, static_cast<int>(ref_seq / 5));  // of all pushes
}

TEST(EventQueueStressTest, LazilySeededReservedSeqsMatchReferenceHeap) {
  // The engine's lazy arrival seeding: one block of seqs is reserved for
  // every arrival up front, and each arrival is pushed with its reserved
  // seq only when the previous one pops. Ordinary follow-ups pushed in the
  // meantime carry larger seqs, and some of them land on an upcoming
  // arrival's instant, so that arrival is later pushed *below* seqs
  // already queued at its timestamp. The pop order must still be the
  // smallest (time, seq) first, exactly as if every arrival had been
  // pushed eagerly.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };
  constexpr int kArrivals = 4'000;
  constexpr EventKind kFollowUpKinds[] = {
      EventKind::kBootDone, EventKind::kPhaseDone, EventKind::kProgramStep,
      EventKind::kTeardown};
  std::mt19937 rng(19);
  std::vector<sim::Nanos> arrivals(kArrivals);
  for (sim::Nanos& a : arrivals) {
    a = static_cast<sim::Nanos>(rng() % 20'000);
  }
  std::sort(arrivals.begin(), arrivals.end());

  EventQueue q;
  std::priority_queue<Event, std::vector<Event>, Later> ref;
  const std::uint64_t base = q.reserve_seqs(kArrivals);
  ASSERT_EQ(base, 0u);
  std::uint64_t ref_seq = kArrivals;  // the next seq push() will stamp
  // Follow-ups still queued per timestamp; all of their seqs lie above the
  // reserved block.
  std::map<sim::Nanos, int> queued_follow_ups;
  int cursor = 0;     // next arrival to push
  int below = 0;      // reserved pushes landing under a queued larger seq
  int follow_ups = 0;
  const auto push_arrival = [&] {
    const auto i = static_cast<std::size_t>(cursor);
    const std::uint64_t seq = base + i;
    const auto it = queued_follow_ups.find(arrivals[i]);
    if (it != queued_follow_ups.end() && it->second > 0) {
      ++below;
    }
    q.push_at_seq(arrivals[i], seq, i, EventKind::kArrival);
    ref.push(Event{arrivals[i], seq, i, EventKind::kArrival, 0});
    ++cursor;
  };
  const auto push_follow_up = [&](sim::Nanos t) {
    const std::uint64_t tenant = rng() % kArrivals;
    const EventKind kind = kFollowUpKinds[rng() % 4];
    const auto epoch = static_cast<std::uint32_t>(rng() % 3);
    q.push(t, tenant, kind, epoch);
    ref.push(Event{t, ref_seq++, tenant, kind, epoch});
    ++queued_follow_ups[t];
    ++follow_ups;
  };
  push_arrival();

  int pops = 0;
  while (!ref.empty()) {
    ASSERT_EQ(q.size(), ref.size());
    const Event expected = ref.top();
    ref.pop();
    const Event got = q.pop();
    ASSERT_EQ(got.time, expected.time) << "pop " << pops;
    ASSERT_EQ(got.seq, expected.seq) << "pop " << pops;
    ASSERT_EQ(got.tenant, expected.tenant) << "pop " << pops;
    ASSERT_EQ(got.kind, expected.kind) << "pop " << pops;
    ASSERT_EQ(got.epoch, expected.epoch) << "pop " << pops;
    ++pops;
    const bool is_arrival = got.kind == EventKind::kArrival;
    if (!is_arrival) {
      --queued_follow_ups[got.time];
    }

    // An arrival mostly schedules work on the instant of the arrival about
    // to be seeded. Every pop may add one more follow-up: on the instant
    // just popped, on one of the next few arrival instants, or a short gap
    // later.
    if (is_arrival && cursor < kArrivals && rng() % 4 != 0) {
      push_follow_up(arrivals[static_cast<std::size_t>(cursor)]);
    }
    if (rng() % 2 == 0) {
      sim::Nanos t = got.time + static_cast<sim::Nanos>(rng() % 200);
      const unsigned pick = rng() % 3;
      if (pick == 0) {
        t = got.time;
      } else if (pick == 1 && cursor < kArrivals) {
        t = arrivals[static_cast<std::size_t>(
            std::min(kArrivals - 1, cursor + static_cast<int>(rng() % 4)))];
      }
      push_follow_up(t);
    }
    if (is_arrival && cursor < kArrivals) {
      push_arrival();
    }
    ASSERT_EQ(q.size(), ref.size());
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(cursor, kArrivals);
  EXPECT_EQ(pops, kArrivals + follow_ups);
  // The case under test must actually occur, and often.
  EXPECT_GT(below, kArrivals / 2);
}

}  // namespace
