#include "pls/metrics/availability.hpp"

#include "pls/common/small_map.hpp"

namespace pls::metrics {

bool lookup_satisfiable(const core::Strategy& strategy, std::size_t t) {
  if (t == 0) return true;
  const auto up = strategy.network().failures().up();

  switch (strategy.kind()) {
    case core::StrategyKind::kFullReplication:
    case core::StrategyKind::kFixed:
      // One random operational server answers; all are identical, so any
      // operational server having >= t entries decides.
      return !up.empty() &&
             strategy.server_state(up.front()).store().size() >= t;
    case core::StrategyKind::kRandomServer:
    case core::StrategyKind::kRoundRobin:
    case core::StrategyKind::kHash:
    case core::StrategyKind::kMultiProbe: {
      // Clients merge answers across servers: operational coverage decides.
      // A store's entries are distinct, so one store of >= t decides alone;
      // otherwise count distinct entries until t. The set never grows past
      // t, so it stays inline (no allocation) for t <= 32.
      SmallSet<Entry, 32> seen;
      for (const ServerId s : up) {
        const core::EntryStore& store = strategy.server_state(s).store();
        if (store.size() >= t) return true;
        for (const Entry v : store.entries()) {
          if (seen.insert(v) && seen.size() >= t) return true;
        }
      }
      return false;
    }
  }
  return false;
}

}  // namespace pls::metrics
