// Lookup availability under churn — the Fig 12 metric: the fraction of
// execution *time* during which a partial_lookup(t) could not be satisfied.
//
// Satisfiability is evaluated against each strategy's own lookup protocol:
// single-server schemes (Full Replication, Fixed-x) need one server with
// >= t entries; multi-server schemes need cluster coverage >= t among
// operational servers.
#pragma once

#include <cstddef>

#include "pls/core/strategy.hpp"

namespace pls::metrics {

/// True when the strategy's lookup protocol would return >= t entries
/// right now. Reads the operational servers' tenant stores in place — no
/// messages are charged, so replayers can probe after every event without
/// perturbing the §6.4 overhead accounting — and allocates nothing for
/// t <= 32.
bool lookup_satisfiable(const core::Strategy& strategy, std::size_t t);

}  // namespace pls::metrics
