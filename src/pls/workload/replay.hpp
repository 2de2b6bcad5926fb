// Replays a generated workload through a strategy, the way §6 runs its
// dynamic experiments: the stream is pre-generated and sorted by time, so
// its events are applied in index order.
//
// Observers can sample the strategy between events; ProbeAccumulators
// weight each sample by the time until the next event, which is how Fig 12
// turns per-event satisfiability into a "percentage of execution time".
#pragma once

#include <functional>

#include "pls/core/strategy.hpp"
#include "pls/workload/update_stream.hpp"

namespace pls::workload {

struct ReplayResult {
  std::size_t adds_applied = 0;
  std::size_t deletes_applied = 0;
  SimTime end_time = 0.0;
};

class Replayer {
 public:
  /// The strategy must outlive the replayer. place(initial) happens at the
  /// start of run(), at simulated time 0.
  Replayer(core::Strategy& strategy, const GeneratedWorkload& workload);

  /// Observer invoked after each applied event with the event, its index,
  /// and the time until the next event (0 for the last one).
  using Observer =
      std::function<void(const UpdateEvent&, std::size_t, SimTime)>;
  void set_observer(Observer observer) { observer_ = std::move(observer); }

  /// Places the initial population, then applies every event. Rejects a
  /// stream whose times fall below 0 or below their predecessor's.
  ReplayResult run();

 private:
  core::Strategy& strategy_;
  const GeneratedWorkload& workload_;
  Observer observer_;
};

/// Fig 12's metric: the fraction of execution time during which
/// partial_lookup(t) could not be satisfied, over one replay of `workload`.
double unavailable_time_fraction(core::Strategy& strategy,
                                 const GeneratedWorkload& workload,
                                 std::size_t t);

}  // namespace pls::workload
