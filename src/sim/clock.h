// The virtual clock that every simulated component charges its costs to.
#pragma once

#include <limits>
#include <stdexcept>

#include "sim/time.h"

namespace sim {

/// Monotonic virtual clock. Components advance it by the cost of the work
/// they model; experiments read it to convert virtual elapsed time into
/// reported metrics. The clock never goes backwards.
class Clock {
 public:
  Clock() = default;
  explicit Clock(Nanos start) : now_(start) {}

  /// Current virtual time since the clock's epoch.
  Nanos now() const { return now_; }

  /// Charge `cost` virtual nanoseconds. Throws std::invalid_argument on a
  /// negative cost and std::overflow_error on a cost that would carry the
  /// clock past the largest Nanos; a zero cost is allowed (free
  /// bookkeeping operations).
  void advance(Nanos cost) {
    if (cost < 0) {
      throw std::invalid_argument("Clock::advance: negative cost");
    }
    if (now_ > std::numeric_limits<Nanos>::max() - cost) {
      throw std::overflow_error("Clock::advance: time would pass INT64_MAX");
    }
    now_ += cost;
  }

  /// Jump to an absolute virtual time, used when merging timelines of
  /// concurrently modeled actors. Throws if `t` is in the past.
  void advance_to(Nanos t) {
    if (t < now_) {
      throw std::invalid_argument("Clock::advance_to: time would go backwards");
    }
    now_ = t;
  }

  /// Reset to the epoch. Only experiments (not components) should call this.
  void reset() { now_ = 0; }

 private:
  Nanos now_ = 0;
};

}  // namespace sim
