// Sharding a production workload across runtime shards.
//
// The SaturationEngine is a sequential replayer: one engine, one service,
// one time-sorted event stream. Under sim::ShardedRuntime each shard owns
// a disjoint slice of the key space, so a production workload is *split*
// into per-shard workloads first: client events (lookup/add/delete) are
// routed to the shard that owns their key (shard_of_key on the key
// string — the identical routing the runtime uses) with key indices
// remapped to shard-local ones, while cluster-scoped events (failures,
// recoveries, partitions) are duplicated into every shard's stream, in
// the same relative order. Each shard then replays its slice on its own
// thread against its own service replica, and the per-shard stats are
// folded back in shard order. run_sharded_saturation does all three.
//
// Determinism: per-shard event streams and fold order are pure functions
// of (workload, shard count), so a sharded saturation run is replayable
// for any fixed (seed, S). Unlike the closed-loop lookup path, the
// *queueing* observables are not shard-count-invariant — S shards model S
// independent thread-per-core capacity slices (each shard's hosts serve
// only that shard's traffic), so latency under load genuinely changes
// with S. The S = 1 split is the identity: its fold is byte-identical to
// running the sequential engine on the original workload, pinned by the
// tier-2 grid.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pls/runtime/sharded_runtime.hpp"
#include "pls/workload/generator.hpp"
#include "pls/workload/saturation.hpp"

namespace pls::workload {

/// A production workload partitioned across shards.
struct ShardedWorkload {
  /// One complete, self-contained workload per shard (local key indices).
  std::vector<ProductionWorkload> shards;
  /// key_map[s][local] = global key index in the original workload;
  /// inverts the routing for per-key scatter in the fold.
  std::vector<std::vector<std::uint32_t>> key_map;
};

/// Splits `workload` across `shards` (a power of two) by key-content
/// routing. Every client event lands on exactly one shard; every
/// cluster-scoped event lands on all of them.
ShardedWorkload split_production_workload(const ProductionWorkload& workload,
                                          std::size_t shards);

/// Folds per-shard saturation stats (in shard order) back into one
/// aggregate over the original workload's key space. Counter fields sum;
/// latency reservoirs merge in shard order; per-key arrays scatter
/// through `split.key_map`. Cluster-scoped event counts (fail/recover/
/// partition) are taken from shard 0 — they were duplicated, not split.
/// The per-lookup trace is forwarded only for a single-shard split (with
/// S > 1 there is no canonical interleaving of per-shard arrival orders).
SaturationStats fold_saturation_stats(std::span<const SaturationStats>
                                          per_shard,
                                      const ShardedWorkload& split);

/// Splits `workload` over the runtime's shards, runs one SaturationEngine
/// per shard on that shard's worker against its service replica, and
/// folds the stats. The runtime must be fresh, like an engine's service;
/// it is drained on return.
SaturationStats run_sharded_saturation(sim::ShardedRuntime& runtime,
                                       const ProductionWorkload& workload,
                                       const SaturationConfig& config);

}  // namespace pls::workload
