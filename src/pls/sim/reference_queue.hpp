// The original binary-heap event queue, kept as a differential oracle.
//
// Ordering is (time, sequence): events scheduled for the same instant fire
// in scheduling order. This is the implementation sim::EventQueue aliased
// before the timer wheel landed; it is retained as the oracle the typed
// queue contract suite (tests/test_event_queue.cpp) and the differential
// fuzz test (tests/test_event_queue_fuzz.cpp) drive in lockstep with the
// wheel, and as bench_event_queue's before/after baseline.
//
// Cancellation is lazy: a cancelled id is parked in `cancelled_` and the
// matching heap item dropped when it surfaces. The live id set `pending_`
// makes cancel() exact — cancelling an already-fired or never-issued id is
// rejected up front instead of leaking the id into `cancelled_` forever
// (the unbounded-growth bug the first version of this queue had under
// retry-heavy runs), and it doubles as an exact size()/empty() count
// (replacing the old `live_` counter that was incremented but never
// decremented).
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "pls/common/types.hpp"
#include "pls/sim/inline_event.hpp"

namespace pls::sim {

class ReferenceEventQueue {
 public:
  using Fn = std::function<void()>;

  /// Schedules `fn` at absolute time `at`; returns a cancellable id.
  EventId schedule(SimTime at, Fn fn);

  /// Cancels a pending event. Returns false if the event already fired,
  /// was already cancelled, or never existed.
  bool cancel(EventId id);

  bool empty() const noexcept;
  std::size_t size() const noexcept;

  /// Time of the next live event. Precondition: !empty().
  SimTime next_time() const;

  /// Pops and returns the next live event. Precondition: !empty().
  struct Popped {
    EventId id;
    SimTime time;
    Fn fn;
  };
  Popped pop();

  /// Cancelled ids still awaiting lazy removal from the heap. The
  /// regression test pins this to the number of *pending* cancellations so
  /// the old cancel-after-fire leak cannot come back.
  std::size_t lazy_cancelled() const noexcept { return cancelled_.size(); }

 private:
  struct Item {
    SimTime time;
    EventId id;          // doubles as the FIFO tie-break sequence
    mutable Fn fn;       // moved out on pop
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };

  void drop_cancelled() const;

  mutable std::priority_queue<Item, std::vector<Item>, Later> heap_;
  std::unordered_set<EventId> pending_;
  mutable std::unordered_set<EventId> cancelled_;
  EventId next_id_ = 1;
};

}  // namespace pls::sim
