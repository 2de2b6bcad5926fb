// Tier-2 randomized differential grid for the sharded runtime: for random
// (strategy, n, keys, churn, link, membership) shapes, a
// sim::ShardedRuntime must reproduce the sequential
// core::PartialLookupService oracle's aggregate counters — lookup tallies,
// client and repair transport, storage — byte for byte, for every shard
// count in {1, 2, 4, 8}. This is the tentpole guarantee: sharding is
// purely an execution-plan choice, never an observable behaviour change.
//
// A second suite pins the sharded saturation path: the S = 1 split/fold is
// the identity (byte-identical to the sequential engine, per-lookup trace
// included), per-key protocol outcomes are shard-count-invariant, and a
// fixed-S fold is deterministic across runs.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "pls/common/rng.hpp"
#include "pls/core/service.hpp"
#include "pls/net/repair.hpp"
#include "pls/runtime/sharded_runtime.hpp"
#include "pls/workload/generator.hpp"
#include "pls/workload/saturation.hpp"
#include "pls/workload/sharded_saturation.hpp"

namespace pls {
namespace {

constexpr std::size_t kShardCounts[] = {1, 2, 4, 8};

struct GridShape {
  core::StrategyKind kind;
  std::size_t n;
  std::size_t num_keys;
  std::size_t param;
  std::size_t t;
  std::size_t ops;
  bool lossy;
  bool with_failures;
  bool with_membership;
  std::uint64_t seed;
};

std::string grid_name(const ::testing::TestParamInfo<GridShape>& info) {
  const auto& s = info.param;
  return std::string(core::to_string(s.kind)) + "_n" + std::to_string(s.n) +
         "_k" + std::to_string(s.num_keys) + "_p" + std::to_string(s.param) +
         (s.lossy ? "_lossy" : "") + (s.with_failures ? "_fail" : "") +
         (s.with_membership ? "_mem" : "") + "_s" +
         std::to_string(s.seed % 100000);
}

std::vector<GridShape> random_grid() {
  Rng meta(0x8a2d91e4);
  std::vector<GridShape> shapes;
  constexpr std::size_t kPerKind = 2;
  for (core::StrategyKind kind :
       {core::StrategyKind::kFullReplication, core::StrategyKind::kFixed,
        core::StrategyKind::kRandomServer, core::StrategyKind::kRoundRobin,
        core::StrategyKind::kHash, core::StrategyKind::kMultiProbe}) {
    for (std::size_t i = 0; i < kPerKind; ++i) {
      GridShape s;
      s.kind = kind;
      s.n = 4 + static_cast<std::size_t>(meta.uniform(5));          // 4..8
      s.num_keys = 6 + static_cast<std::size_t>(meta.uniform(11));  // 6..16
      switch (kind) {
        case core::StrategyKind::kFullReplication:
          s.param = 1;
          break;
        case core::StrategyKind::kFixed:
        case core::StrategyKind::kRandomServer:
          s.param = 2 + static_cast<std::size_t>(meta.uniform(8));
          break;
        case core::StrategyKind::kRoundRobin:
        case core::StrategyKind::kHash:
        case core::StrategyKind::kMultiProbe:
          s.param = 1 + static_cast<std::size_t>(meta.uniform(s.n - 1));
          break;
      }
      s.t = 1 + static_cast<std::size_t>(meta.uniform(4));
      s.ops = 60 + static_cast<std::size_t>(meta.uniform(60));
      s.lossy = (i % 2 == 1);
      s.with_failures = true;
      s.with_membership = (i % 2 == 1);
      s.seed = meta.next_u64();
      shapes.push_back(s);
    }
  }
  return shapes;
}

class ShardedGridTest : public ::testing::TestWithParam<GridShape> {};

TEST_P(ShardedGridTest, EveryShardCountMatchesTheSequentialOracle) {
  const auto& p = GetParam();

  core::ServiceConfig cfg;
  cfg.num_servers = p.n;
  cfg.default_strategy = {.kind = p.kind, .param = p.param, .seed = 0};
  if (p.lossy) {
    cfg.link = {.drop_probability = 0.12, .duplicate_probability = 0.06,
                .seed = 0};
    cfg.retry = {.max_attempts = 3};
  }
  cfg.expected_keys = p.num_keys;
  cfg.seed = p.seed;

  // The sequential oracle, with its own repair process over every key.
  core::PartialLookupService oracle(cfg);
  net::RepairProcess oracle_repair(oracle.cluster().failures(),
                                   net::RepairProcess::Config{1.0});
  metrics::ShardLookupCounters oracle_totals;
  std::vector<metrics::ShardLookupCounters> oracle_per_key(p.num_keys);

  // One runtime per shard count, all fed the identical op stream.
  std::vector<std::unique_ptr<sim::ShardedRuntime>> runtimes;
  for (const std::size_t S : kShardCounts) {
    sim::ShardedRuntimeConfig rcfg;
    rcfg.shards = S;
    rcfg.queue_capacity = 64;  // small ring: exercise backpressure too
    rcfg.service = cfg;
    runtimes.push_back(std::make_unique<sim::ShardedRuntime>(rcfg));
  }

  std::vector<Key> keys(p.num_keys);
  std::vector<std::vector<Entry>> live(p.num_keys);
  for (std::size_t k = 0; k < p.num_keys; ++k) {
    keys[k] = "grid-key-" + std::to_string(k);
    for (std::size_t i = 0; i < 12; ++i) {
      live[k].push_back(static_cast<Entry>(1000 * k + i));
    }
    oracle.place(keys[k], live[k]);
    oracle_repair.add_target(&oracle.strategy(keys[k]));
    for (auto& rt : runtimes) rt->place(keys[k], live[k]);
  }

  // Membership/failure decisions are made from oracle state only, then
  // replayed verbatim into every runtime — all sides see one history.
  Rng ops(p.seed ^ 0x51edULL);
  for (std::size_t op = 0; op < p.ops; ++op) {
    const auto k = static_cast<std::size_t>(ops.uniform(p.num_keys));
    switch (ops.uniform(10)) {
      case 0: {  // add
        const Entry v = static_cast<Entry>(50'000 + 100 * k + op);
        live[k].push_back(v);
        oracle.add(keys[k], v);
        for (auto& rt : runtimes) rt->add(keys[k], v);
        break;
      }
      case 1: {  // delete
        if (live[k].empty()) break;
        const Entry v = live[k].back();
        live[k].pop_back();
        oracle.erase(keys[k], v);
        for (auto& rt : runtimes) rt->erase(keys[k], v);
        break;
      }
      case 2: {  // fail an up member
        if (!p.with_failures) break;
        const auto rank = static_cast<std::size_t>(
            ops.uniform(oracle.failures().member_count()));
        const ServerId down = oracle.failures().member_at(rank);
        if (!oracle.failures().is_up(down)) break;
        oracle.fail_server(down);
        for (auto& rt : runtimes) rt->fail_server(down);
        break;
      }
      case 3: {  // recover (everyone, occasionally; else one downed member)
        if (!p.with_failures) break;
        if (ops.uniform(3) == 0) {
          oracle.recover_all();
          for (auto& rt : runtimes) rt->recover_all();
          break;
        }
        const auto rank = static_cast<std::size_t>(
            ops.uniform(oracle.failures().member_count()));
        const ServerId s = oracle.failures().member_at(rank);
        if (oracle.failures().is_up(s)) break;
        oracle.recover_server(s);
        for (auto& rt : runtimes) rt->recover_server(s);
        break;
      }
      case 4: {  // repair pass (heals deficits left by fail-during-add)
        const double now = static_cast<double>(op + 1);
        (void)oracle_repair.scan_once(now);
        for (auto& rt : runtimes) rt->repair_scan(now);
        break;
      }
      case 5: {  // membership: join or leave
        if (!p.with_membership) break;
        if (ops.uniform(2) == 0) {
          const ServerId joined = oracle.add_server();
          for (auto& rt : runtimes) {
            ASSERT_EQ(rt->add_server(), joined) << "op " << op;
          }
        } else {
          if (oracle.failures().member_count() <= 3) break;
          const auto rank = static_cast<std::size_t>(
              ops.uniform(oracle.failures().member_count()));
          const ServerId leaver = oracle.failures().member_at(rank);
          if (!oracle.failures().is_up(leaver)) break;
          const auto loss = ops.uniform(2) == 0 ? net::Loss::kGraceful
                                                : net::Loss::kPermanent;
          oracle.remove_server(leaver, loss);
          for (auto& rt : runtimes) rt->remove_server(leaver, loss);
        }
        break;
      }
      default: {  // lookup
        const auto r = oracle.partial_lookup(keys[k], p.t);
        metrics::ShardLookupCounters delta;
        delta.lookups = 1;
        delta.satisfied = r.satisfied ? 1 : 0;
        delta.servers_contacted = r.servers_contacted;
        delta.entries_returned = r.entries.size();
        oracle_totals.merge(delta);
        oracle_per_key[k].merge(delta);
        for (auto& rt : runtimes) rt->lookup(keys[k], p.t);
        break;
      }
    }
  }

  // End-state differential, every shard count against the one oracle.
  for (std::size_t i = 0; i < runtimes.size(); ++i) {
    sim::ShardedRuntime& rt = *runtimes[i];
    SCOPED_TRACE("shards=" + std::to_string(kShardCounts[i]));
    EXPECT_TRUE(rt.shards_consistent());
    EXPECT_EQ(rt.lookup_totals(), oracle_totals);
    EXPECT_EQ(rt.total_transport(), oracle.total_transport());
    EXPECT_TRUE(rt.total_transport().conservation_holds());
    EXPECT_EQ(rt.total_repair_transport(),
              oracle.cluster().network().repair_stats());
    EXPECT_EQ(rt.total_repairs_created(), oracle_repair.replicas_created());
    EXPECT_EQ(rt.total_storage(), oracle.total_storage());
    EXPECT_EQ(rt.num_keys(), p.num_keys);
    for (std::size_t k = 0; k < p.num_keys; ++k) {
      ASSERT_EQ(rt.key_lookup_totals(keys[k]), oracle_per_key[k])
          << "key " << keys[k];
      ASSERT_EQ(rt.key_transport(keys[k]), oracle.key_transport(keys[k]))
          << "key " << keys[k];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGrid, ShardedGridTest,
                         ::testing::ValuesIn(random_grid()), grid_name);

// ---------------------------------------------------------------------------
// Sharded saturation: split/fold semantics over the runtime.

workload::ProductionWorkload make_workload(std::uint64_t seed) {
  workload::ProductionWorkloadConfig wcfg;
  wcfg.num_keys = 16;
  wcfg.entries_per_key = 10;
  wcfg.num_servers = 6;
  wcfg.zipf_theta = 1.1;
  wcfg.offered_load = 15.0;
  wcfg.read_fraction = 0.85;
  wcfg.target_answer_size = 3;
  wcfg.num_events = 1500;
  wcfg.failures = workload::CorrelatedFailureConfig{40.0, 2, 8.0};
  wcfg.partitions = workload::PartitionEventConfig{60.0, 10.0};
  wcfg.seed = seed;
  return workload::generate_production_workload(wcfg);
}

core::ServiceConfig saturation_service_config(std::uint64_t seed) {
  core::ServiceConfig scfg;
  scfg.num_servers = 6;
  scfg.default_strategy = {.kind = core::StrategyKind::kRoundRobin,
                           .param = 2,
                           .seed = 0};
  scfg.link = {.drop_probability = 0.08, .duplicate_probability = 0.04,
               .seed = 0};
  scfg.retry = {.max_attempts = 3};
  scfg.seed = seed;
  return scfg;
}

/// Runs workload::run_sharded_saturation, the path plsim's saturation mode
/// takes, on a fresh S-shard runtime.
workload::SaturationStats saturate_on_runtime(
    const workload::ProductionWorkload& wl, std::size_t shards,
    const core::ServiceConfig& scfg, const workload::SaturationConfig& sat,
    net::TransportStats* transport_out = nullptr) {
  sim::ShardedRuntimeConfig rcfg;
  rcfg.shards = shards;
  rcfg.service = scfg;
  sim::ShardedRuntime runtime(rcfg);
  const auto stats = workload::run_sharded_saturation(runtime, wl, sat);
  if (transport_out != nullptr) *transport_out = runtime.total_transport();
  return stats;
}

TEST(ShardedSaturation, SingleShardFoldIsByteIdenticalToSequentialEngine) {
  const auto wl = make_workload(0x77ab12cdULL);
  const auto scfg = saturation_service_config(0x77ab12cdULL);
  workload::SaturationConfig sat;
  sat.service_time = 0.05;
  sat.deadline = 25.0;
  sat.record_trace = true;

  core::PartialLookupService seq_svc(scfg);
  workload::SaturationEngine seq_engine(seq_svc, wl, sat);
  const auto seq = seq_engine.run();

  net::TransportStats sharded_transport;
  const auto sharded =
      saturate_on_runtime(wl, 1, scfg, sat, &sharded_transport);

  EXPECT_EQ(sharded.lookups, seq.lookups);
  EXPECT_EQ(sharded.executed, seq.executed);
  EXPECT_EQ(sharded.coalesced, seq.coalesced);
  EXPECT_EQ(sharded.rejected, seq.rejected);
  EXPECT_EQ(sharded.satisfied, seq.satisfied);
  EXPECT_EQ(sharded.satisfied_late, seq.satisfied_late);
  EXPECT_EQ(sharded.unsatisfied, seq.unsatisfied);
  EXPECT_EQ(sharded.adds, seq.adds);
  EXPECT_EQ(sharded.deletes, seq.deletes);
  EXPECT_EQ(sharded.fail_events, seq.fail_events);
  EXPECT_EQ(sharded.recover_events, seq.recover_events);
  EXPECT_EQ(sharded.partitions, seq.partitions);
  EXPECT_EQ(sharded.horizon, seq.horizon);
  EXPECT_EQ(sharded.total_servers_contacted, seq.total_servers_contacted);
  EXPECT_EQ(sharded.per_key_lookups, seq.per_key_lookups);
  EXPECT_EQ(sharded.per_key_satisfied, seq.per_key_satisfied);
  // The identity split forwards the per-lookup trace: byte-equality pins
  // the two runs to identical per-lookup answers, not just equal sums.
  EXPECT_EQ(sharded.trace, seq.trace);
  ASSERT_EQ(sharded.latency.count(), seq.latency.count());
  if (!seq.latency.empty()) {
    EXPECT_EQ(sharded.latency.mean(), seq.latency.mean());
    EXPECT_EQ(sharded.latency.max(), seq.latency.max());
    EXPECT_EQ(sharded.latency.percentile(99.0), seq.latency.percentile(99.0));
  }
  EXPECT_EQ(sharded_transport, seq_svc.total_transport());
}

TEST(ShardedSaturation, PerKeyProtocolOutcomesAreShardCountInvariant) {
  // Queueing observables (latency, deadline splits) legitimately change
  // with S — each shard is an independent capacity slice — but per-key
  // protocol satisfaction is deadline-blind and each key's lookup history
  // is bit-identical on any shard. Event routing must also conserve: every
  // client event lands on exactly one shard.
  const auto wl = make_workload(0x3c9f01ULL);
  const auto scfg = saturation_service_config(0x3c9f01ULL);
  workload::SaturationConfig sat;
  sat.service_time = 0.05;
  sat.deadline = 25.0;

  core::PartialLookupService seq_svc(scfg);
  workload::SaturationEngine seq_engine(seq_svc, wl, sat);
  const auto seq = seq_engine.run();

  for (const std::size_t S : {2u, 4u, 8u}) {
    const auto sharded = saturate_on_runtime(wl, S, scfg, sat);
    SCOPED_TRACE("shards=" + std::to_string(S));
    EXPECT_EQ(sharded.lookups, seq.lookups);
    EXPECT_EQ(sharded.adds, seq.adds);
    EXPECT_EQ(sharded.deletes, seq.deletes);
    EXPECT_EQ(sharded.fail_events, seq.fail_events);
    EXPECT_EQ(sharded.partitions, seq.partitions);
    EXPECT_EQ(sharded.horizon, seq.horizon);
    EXPECT_EQ(sharded.per_key_lookups, seq.per_key_lookups);
    EXPECT_EQ(sharded.per_key_satisfied, seq.per_key_satisfied);
    EXPECT_EQ(sharded.latency.count(), seq.latency.count());
  }
}

TEST(ShardedSaturation, FixedShardCountFoldIsDeterministic) {
  const auto wl = make_workload(0xbeef55ULL);
  const auto scfg = saturation_service_config(0xbeef55ULL);
  workload::SaturationConfig sat;
  sat.service_time = 0.05;
  sat.deadline = 25.0;
  sat.coalesce = true;
  sat.admit_backlog_limit = 20.0;

  net::TransportStats t1, t2;
  const auto a = saturate_on_runtime(wl, 4, scfg, sat, &t1);
  const auto b = saturate_on_runtime(wl, 4, scfg, sat, &t2);
  EXPECT_EQ(a.lookups, b.lookups);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.coalesced, b.coalesced);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.satisfied, b.satisfied);
  EXPECT_EQ(a.satisfied_late, b.satisfied_late);
  EXPECT_EQ(a.unsatisfied, b.unsatisfied);
  EXPECT_EQ(a.total_servers_contacted, b.total_servers_contacted);
  EXPECT_EQ(a.per_key_lookups, b.per_key_lookups);
  EXPECT_EQ(a.per_key_satisfied, b.per_key_satisfied);
  ASSERT_EQ(a.latency.count(), b.latency.count());
  if (!a.latency.empty()) {
    EXPECT_EQ(a.latency.mean(), b.latency.mean());
    EXPECT_EQ(a.latency.percentile(50.0), b.latency.percentile(50.0));
    EXPECT_EQ(a.latency.max(), b.latency.max());
  }
  EXPECT_EQ(t1, t2);
  EXPECT_TRUE(t1.conservation_holds());
}

}  // namespace
}  // namespace pls
