// Time-ordered event queue for the discrete-event simulator.
//
// sim::EventQueue is the hierarchical timer wheel (TimerWheelQueue):
// allocation-free InlineEvent callables, O(1) placement and O(1)
// generation-tagged cancellation, popping in (time, sequence) order, so
// events scheduled for the same instant fire in scheduling order and whole
// simulations are deterministic given a fixed RNG seed. See
// timer_wheel.hpp.
//
// The binary heap it replaced survives as ReferenceEventQueue
// (reference_queue.hpp), the oracle the typed queue contract suite, the
// tier-2 lockstep fuzz and bench_event_queue drive next to the wheel.
#pragma once

#include "pls/sim/inline_event.hpp"
#include "pls/sim/timer_wheel.hpp"

namespace pls::sim {

using EventQueue = TimerWheelQueue;

/// The callable type the queue stores: a move-only InlineEvent. Generic
/// call sites should pass lambdas straight to schedule_* and let the queue
/// wrap them.
using EventFn = EventQueue::Fn;

}  // namespace pls::sim
