// Deterministic folds of per-shard counters.
//
// The sharded runtime's aggregation contract: each worker shard
// accumulates its own counters with no synchronisation (shard-local
// TransportStats, shard-local lookup tallies), and the control plane
// folds them *in shard order* at barrier points. Every counter is an
// integer, integer addition is associative and commutative, and the fold
// order is fixed — so the folded totals are bit-identical to the
// sequential oracle's, for any shard count. Nothing here is locked or
// atomic; folds only run after a barrier has made the shard data quiescent
// and visible (the runtime's drain barrier on its rings' consumer cursors).
#pragma once

#include <cstdint>
#include <span>

#include "pls/net/transport_stats.hpp"

namespace pls::metrics {

/// Per-shard lookup tallies, folded across shards (and scattered per key
/// by the runtime). Plain integers: equality is byte equality.
struct ShardLookupCounters {
  std::uint64_t lookups = 0;            ///< partial_lookup calls executed
  std::uint64_t satisfied = 0;          ///< results meeting their t
  std::uint64_t servers_contacted = 0;  ///< summed result.servers_contacted
  std::uint64_t entries_returned = 0;   ///< summed result.entries.size()

  void merge(const ShardLookupCounters& other) noexcept {
    lookups += other.lookups;
    satisfied += other.satisfied;
    servers_contacted += other.servers_contacted;
    entries_returned += other.entries_returned;
  }

  friend bool operator==(const ShardLookupCounters&,
                         const ShardLookupCounters&) = default;
};

/// Folds per-shard transport counters in shard order. The result obeys
/// the conservation law whenever every input does (checked by merge).
net::TransportStats fold_transport(
    std::span<const net::TransportStats> per_shard);

/// Folds per-shard lookup tallies in shard order.
ShardLookupCounters fold_lookups(
    std::span<const ShardLookupCounters> per_shard);

}  // namespace pls::metrics
