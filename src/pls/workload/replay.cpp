#include "pls/workload/replay.hpp"

#include "pls/common/check.hpp"
#include "pls/metrics/availability.hpp"

namespace pls::workload {

Replayer::Replayer(core::Strategy& strategy, const GeneratedWorkload& workload)
    : strategy_(strategy), workload_(workload) {}

ReplayResult Replayer::run() {
  const auto& events = workload_.events;
  ReplayResult result;
  strategy_.place(workload_.initial);
  SimTime previous = 0.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const UpdateEvent& ev = events[i];
    PLS_CHECK_MSG(ev.time >= previous,
                  "replay events must be sorted by time, from time 0");
    previous = ev.time;
    if (ev.kind == UpdateKind::kAdd) {
      strategy_.add(ev.entry);
      ++result.adds_applied;
    } else {
      strategy_.erase(ev.entry);
      ++result.deletes_applied;
    }
    if (observer_) {
      const SimTime gap =
          (i + 1 < events.size()) ? events[i + 1].time - ev.time : 0.0;
      observer_(ev, i, gap);
    }
  }
  result.end_time = events.empty() ? 0.0 : events.back().time;
  return result;
}

double unavailable_time_fraction(core::Strategy& strategy,
                                 const GeneratedWorkload& workload,
                                 std::size_t t) {
  PLS_CHECK_MSG(!workload.events.empty(), "empty workload");
  double unavailable = 0.0;
  double total = 0.0;
  Replayer replayer(strategy, workload);
  replayer.set_observer(
      [&](const UpdateEvent&, std::size_t, SimTime gap) {
        total += gap;
        if (!metrics::lookup_satisfiable(strategy, t)) unavailable += gap;
      });
  replayer.run();
  return total > 0.0 ? unavailable / total : 0.0;
}

}  // namespace pls::workload
