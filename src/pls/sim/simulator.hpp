// Discrete-event simulator: a clock plus an EventQueue.
//
// The timed processes that run beside a replayed workload schedule here:
// failure injection, background repair, deferred lossy deliveries. The
// pre-sorted §6.1 update stream itself is applied in order by
// pls::workload::Replayer; callers advance this clock to each event's time.
#pragma once

#include <cstdint>
#include <utility>

#include "pls/common/check.hpp"
#include "pls/sim/event_queue.hpp"

namespace pls::sim {

class Simulator {
 public:
  SimTime now() const noexcept { return now_; }
  std::uint64_t events_executed() const noexcept { return executed_; }

  /// Schedules `fn` at absolute time `at`. `at` must not be in the past.
  /// Templated so the queue captures the callable in place (InlineEvent
  /// for the wheel, std::function for the reference queue).
  template <typename F>
  EventId schedule_at(SimTime at, F&& fn) {
    PLS_CHECK_MSG(at >= now_, "cannot schedule an event in the past");
    return queue_.schedule(at, std::forward<F>(fn));
  }

  /// Schedules `fn` after a non-negative delay from now().
  template <typename F>
  EventId schedule_after(SimTime delay, F&& fn) {
    PLS_CHECK_MSG(delay >= 0.0, "negative delay");
    return queue_.schedule(now_ + delay, std::forward<F>(fn));
  }

  bool cancel(EventId id) { return queue_.cancel(id); }
  bool idle() const noexcept { return queue_.empty(); }

  /// The underlying queue; tests use this to pin allocation behaviour
  /// (e.g. queue().slab().fresh_blocks() == 0 on the wheel).
  const EventQueue& queue() const noexcept { return queue_; }

  /// Runs a single event; returns false when the queue is empty.
  bool step();

  /// Runs events with time <= deadline, then advances the clock to the
  /// deadline (even if no event fired). Returns the number executed.
  std::uint64_t run_until(SimTime deadline);

  /// Runs until the queue drains. `max_events` guards against runaway
  /// self-rescheduling loops. Returns the number executed.
  std::uint64_t run_all(std::uint64_t max_events = UINT64_MAX);

 private:
  EventQueue queue_;
  SimTime now_ = 0.0;
  std::uint64_t executed_ = 0;
};

}  // namespace pls::sim
