#include "pls/workload/sharded_saturation.hpp"

#include "pls/common/check.hpp"
#include "pls/common/hashing.hpp"

namespace pls::workload {

ShardedWorkload split_production_workload(const ProductionWorkload& workload,
                                          std::size_t shards) {
  PLS_CHECK_MSG(shards >= 1 && (shards & (shards - 1)) == 0,
                "shard count must be a power of two");
  ShardedWorkload split;
  split.shards.resize(shards);
  split.key_map.resize(shards);

  // Route the catalogue. global -> (shard, local) in global key order, so
  // shard-local orders are subsequences of the global order and the S = 1
  // split is the identity.
  const std::size_t num_keys = workload.keys.size();
  std::vector<std::size_t> shard_of(num_keys);
  std::vector<std::uint32_t> local_of(num_keys);
  for (std::size_t k = 0; k < num_keys; ++k) {
    const std::size_t s = shard_of_key(workload.keys[k], shards);
    shard_of[k] = s;
    local_of[k] = static_cast<std::uint32_t>(split.shards[s].keys.size());
    split.shards[s].keys.push_back(workload.keys[k]);
    split.shards[s].initial_entries.push_back(workload.initial_entries[k]);
    split.key_map[s].push_back(static_cast<std::uint32_t>(k));
  }

  // Route the stream: client events to their key's owner (remapped),
  // cluster-scoped events everywhere, relative order preserved.
  for (const ProdEvent& ev : workload.events) {
    switch (ev.kind) {
      case ProdEventKind::kLookup:
      case ProdEventKind::kAdd:
      case ProdEventKind::kDelete: {
        ProdEvent local = ev;
        local.key = local_of[ev.key];
        split.shards[shard_of[ev.key]].events.push_back(local);
        break;
      }
      case ProdEventKind::kFail:
      case ProdEventKind::kRecover:
      case ProdEventKind::kPartitionStart:
      case ProdEventKind::kPartitionEnd:
        for (auto& shard : split.shards) shard.events.push_back(ev);
        break;
    }
  }

  for (std::size_t s = 0; s < shards; ++s) {
    ProductionWorkload& shard = split.shards[s];
    // Goodput normalises by the *offered* horizon, which is a property of
    // the whole workload, not of one shard's slice.
    shard.horizon = workload.horizon;
    shard.config = workload.config;
    shard.config.num_keys = shard.keys.size();
  }
  return split;
}

SaturationStats fold_saturation_stats(std::span<const SaturationStats>
                                          per_shard,
                                      const ShardedWorkload& split) {
  PLS_CHECK_MSG(per_shard.size() == split.shards.size(),
                "stats/split shard counts differ");
  std::size_t num_keys = 0;
  for (const auto& m : split.key_map) num_keys += m.size();

  SaturationStats total;
  total.per_key_lookups.assign(num_keys, 0);
  total.per_key_satisfied.assign(num_keys, 0);
  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    const SaturationStats& stats = per_shard[s];
    total.lookups += stats.lookups;
    total.executed += stats.executed;
    total.coalesced += stats.coalesced;
    total.rejected += stats.rejected;
    total.satisfied += stats.satisfied;
    total.satisfied_late += stats.satisfied_late;
    total.unsatisfied += stats.unsatisfied;
    total.adds += stats.adds;
    total.deletes += stats.deletes;
    total.total_servers_contacted += stats.total_servers_contacted;
    total.horizon = stats.horizon;  // identical on every shard
    total.latency.merge(stats.latency);
    const std::vector<std::uint32_t>& map = split.key_map[s];
    for (std::size_t local = 0; local < map.size(); ++local) {
      if (local < stats.per_key_lookups.size()) {
        total.per_key_lookups[map[local]] += stats.per_key_lookups[local];
      }
      if (local < stats.per_key_satisfied.size()) {
        total.per_key_satisfied[map[local]] += stats.per_key_satisfied[local];
      }
    }
  }
  // Cluster-scoped events were duplicated into every shard; counting each
  // shard's copy would multiply them by S.
  if (!per_shard.empty()) {
    total.fail_events = per_shard.front().fail_events;
    total.recover_events = per_shard.front().recover_events;
    total.partitions = per_shard.front().partitions;
    if (per_shard.size() == 1) total.trace = per_shard.front().trace;
  }
  return total;
}

SaturationStats run_sharded_saturation(sim::ShardedRuntime& runtime,
                                       const ProductionWorkload& workload,
                                       const SaturationConfig& config) {
  const ShardedWorkload split =
      split_production_workload(workload, runtime.shards());
  std::vector<SaturationStats> per_shard(runtime.shards());
  // Each shard runs a whole engine over its slice, shard-locally; slots
  // are distinct objects, so the writes do not race.
  runtime.run_on_shards([&split, &config, &per_shard](
                            std::size_t s,
                            core::PartialLookupService& service) {
    SaturationEngine engine(service, split.shards[s], config);
    per_shard[s] = engine.run();
  });
  runtime.drain();
  return fold_saturation_stats(per_shard, split);
}

}  // namespace pls::workload
