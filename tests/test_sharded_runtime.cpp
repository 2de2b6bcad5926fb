// sim::ShardedRuntime — the sharded thread-per-core execution mode — must
// be observationally identical to the sequential PartialLookupService
// oracle: same per-key results, same folded aggregate counters, for any
// shard count. These are the fast seed-protecting cases; the randomized
// differential grid lives in tier-2 test_sharded_grid.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pls/common/hashing.hpp"
#include "pls/common/rng.hpp"
#include "pls/core/service.hpp"
#include "pls/net/transport_stats.hpp"
#include "pls/runtime/sharded_runtime.hpp"

namespace pls {
namespace {

core::ServiceConfig base_config(core::StrategyKind kind, std::size_t param,
                                std::size_t servers, std::uint64_t seed) {
  core::ServiceConfig cfg;
  cfg.num_servers = servers;
  cfg.default_strategy.kind = kind;
  cfg.default_strategy.param = param;
  cfg.seed = seed;
  return cfg;
}

std::vector<Key> make_keys(std::size_t n) {
  std::vector<Key> keys(n);
  for (std::size_t k = 0; k < n; ++k) keys[k] = "key-" + std::to_string(k);
  return keys;
}

/// Replays the canonical plsim service workload (place, balanced
/// add/erase churn, round-robin lookups) on the sequential oracle and
/// returns (contacted, satisfied, transport).
struct OracleResult {
  std::uint64_t contacted = 0;
  std::uint64_t satisfied = 0;
  std::size_t storage = 0;
  net::TransportStats transport;
};

OracleResult run_oracle(const core::ServiceConfig& cfg,
                        const std::vector<Key>& keys, std::size_t entries,
                        std::size_t updates, std::size_t lookups,
                        std::size_t target) {
  core::PartialLookupService service(cfg);
  std::vector<Entry> batch(entries);
  for (std::size_t k = 0; k < keys.size(); ++k) {
    for (std::size_t i = 0; i < entries; ++i) {
      batch[i] = static_cast<Entry>(entries * k + i + 1);
    }
    service.place(keys[k], batch);
  }
  for (std::size_t u = 0; u < updates; ++u) {
    const Entry v = static_cast<Entry>(1'000'000 + u);
    service.add(keys[u % keys.size()], v);
    service.erase(keys[u % keys.size()], v);
  }
  OracleResult result;
  for (std::size_t i = 0; i < lookups; ++i) {
    const auto r = service.partial_lookup(keys[i % keys.size()], target);
    result.contacted += r.servers_contacted;
    if (r.satisfied) ++result.satisfied;
  }
  result.storage = service.total_storage();
  result.transport = service.total_transport();
  return result;
}

void drive_runtime(sim::ShardedRuntime& runtime,
                   const std::vector<Key>& keys, std::size_t entries,
                   std::size_t updates, std::size_t lookups,
                   std::size_t target) {
  std::vector<Entry> batch(entries);
  for (std::size_t k = 0; k < keys.size(); ++k) {
    for (std::size_t i = 0; i < entries; ++i) {
      batch[i] = static_cast<Entry>(entries * k + i + 1);
    }
    runtime.place(keys[k], batch);
  }
  for (std::size_t u = 0; u < updates; ++u) {
    const Entry v = static_cast<Entry>(1'000'000 + u);
    runtime.add(keys[u % keys.size()], v);
    runtime.erase(keys[u % keys.size()], v);
  }
  for (std::size_t i = 0; i < lookups; ++i) {
    runtime.lookup(keys[i % keys.size()], target);
  }
}

TEST(ShardedRuntime, MatchesSequentialOracleForEveryStrategy) {
  const auto keys = make_keys(10);
  for (const auto kind :
       {core::StrategyKind::kFullReplication, core::StrategyKind::kFixed,
        core::StrategyKind::kRandomServer, core::StrategyKind::kRoundRobin,
        core::StrategyKind::kHash}) {
    const auto cfg = base_config(kind, 2, 6, 77);
    const OracleResult oracle = run_oracle(cfg, keys, 18, 40, 200, 3);
    for (const std::size_t shards : {1u, 2u, 4u}) {
      sim::ShardedRuntimeConfig rcfg;
      rcfg.shards = shards;
      rcfg.service = cfg;
      sim::ShardedRuntime runtime(rcfg);
      drive_runtime(runtime, keys, 18, 40, 200, 3);
      const auto totals = runtime.lookup_totals();
      EXPECT_EQ(totals.servers_contacted, oracle.contacted)
          << "strategy " << static_cast<int>(kind) << " S=" << shards;
      EXPECT_EQ(totals.satisfied, oracle.satisfied);
      EXPECT_EQ(totals.lookups, 200u);
      EXPECT_EQ(runtime.total_storage(), oracle.storage);
      EXPECT_EQ(runtime.num_keys(), keys.size());
      // Transport totals fold bit-identically (integer counters, fixed
      // shard order; per-server counts index-wise).
      EXPECT_EQ(runtime.total_transport(), oracle.transport);
    }
  }
}

TEST(ShardedRuntime, PerKeyTransportMatchesSequentialAndConserves) {
  const auto keys = make_keys(8);
  const auto cfg = base_config(core::StrategyKind::kRoundRobin, 2, 5, 3);

  core::PartialLookupService sequential(cfg);
  sim::ShardedRuntimeConfig rcfg;
  rcfg.shards = 4;
  rcfg.service = cfg;
  sim::ShardedRuntime runtime(rcfg);

  const std::vector<Entry> batch{1, 2, 3, 4, 5, 6};
  for (const auto& key : keys) {
    sequential.place(key, batch);
    runtime.place(key, batch);
  }
  for (std::size_t i = 0; i < 120; ++i) {
    (void)sequential.partial_lookup(keys[i % keys.size()], 2);
    runtime.lookup(keys[i % keys.size()], 2);
  }

  net::TransportStats per_key_sum;
  for (const auto& key : keys) {
    const net::TransportStats sharded = runtime.key_transport(key);
    EXPECT_EQ(sharded, sequential.key_transport(key)) << key;
    per_key_sum.merge(sharded);
  }
  EXPECT_EQ(per_key_sum, runtime.total_transport());
  EXPECT_TRUE(runtime.total_transport().conservation_holds());
}

TEST(ShardedRuntime, BroadcastFailuresMatchSequentialAndStayConsistent) {
  const auto keys = make_keys(6);
  const auto cfg = base_config(core::StrategyKind::kHash, 3, 6, 9);

  core::PartialLookupService sequential(cfg);
  sim::ShardedRuntimeConfig rcfg;
  rcfg.shards = 2;
  rcfg.service = cfg;
  sim::ShardedRuntime runtime(rcfg);

  const std::vector<Entry> batch{10, 20, 30, 40, 50, 60, 70, 80};
  for (const auto& key : keys) {
    sequential.place(key, batch);
    runtime.place(key, batch);
  }

  std::uint64_t seq_contacted = 0, seq_satisfied = 0;
  const auto lookup_both = [&](std::size_t rounds) {
    for (std::size_t i = 0; i < rounds; ++i) {
      const auto r =
          sequential.partial_lookup(keys[i % keys.size()], 3);
      seq_contacted += r.servers_contacted;
      seq_satisfied += r.satisfied ? 1 : 0;
      runtime.lookup(keys[i % keys.size()], 3);
    }
  };

  lookup_both(30);
  sequential.fail_server(1);
  runtime.fail_server(1);
  sequential.fail_server(4);
  runtime.fail_server(4);
  lookup_both(30);
  sequential.recover_server(1);
  runtime.recover_server(1);
  lookup_both(30);
  sequential.recover_all();
  runtime.recover_all();
  lookup_both(30);

  const auto totals = runtime.lookup_totals();
  EXPECT_EQ(totals.servers_contacted, seq_contacted);
  EXPECT_EQ(totals.satisfied, seq_satisfied);
  EXPECT_EQ(runtime.total_transport(), sequential.total_transport());
  EXPECT_TRUE(runtime.shards_consistent());
  EXPECT_EQ(runtime.shard_service(0).failures().epoch(),
            sequential.failures().epoch());
}

TEST(ShardedRuntime, MembershipChangesReplicateInLockstep) {
  const auto keys = make_keys(5);
  const auto cfg = base_config(core::StrategyKind::kRoundRobin, 2, 4, 21);

  core::PartialLookupService sequential(cfg);
  sim::ShardedRuntimeConfig rcfg;
  rcfg.shards = 4;
  rcfg.service = cfg;
  sim::ShardedRuntime runtime(rcfg);

  const std::vector<Entry> batch{1, 2, 3, 4, 5, 6, 7, 8, 9};
  for (const auto& key : keys) {
    sequential.place(key, batch);
    runtime.place(key, batch);
  }

  const ServerId seq_joined = sequential.add_server();
  const ServerId sharded_joined = runtime.add_server();
  EXPECT_EQ(sharded_joined, seq_joined);

  sequential.remove_server(0, net::Loss::kGraceful);
  runtime.remove_server(0, net::Loss::kGraceful);
  sequential.remove_server(1, net::Loss::kPermanent);
  runtime.remove_server(1, net::Loss::kPermanent);

  std::uint64_t seq_contacted = 0;
  for (std::size_t i = 0; i < 50; ++i) {
    seq_contacted += sequential
                         .partial_lookup(keys[i % keys.size()], 3)
                         .servers_contacted;
    runtime.lookup(keys[i % keys.size()], 3);
  }
  EXPECT_EQ(runtime.lookup_totals().servers_contacted, seq_contacted);
  EXPECT_EQ(runtime.total_transport(), sequential.total_transport());
  EXPECT_EQ(runtime.total_storage(), sequential.total_storage());
  EXPECT_TRUE(runtime.shards_consistent());
  // The mirror agrees with every replica (num_servers includes tombstones).
  for (std::size_t s = 0; s < runtime.shards(); ++s) {
    EXPECT_EQ(runtime.shard_service(s).num_servers(),
              sequential.num_servers());
  }
}

TEST(ShardedRuntime, RepairScansMatchTheSequentialRepairProcess) {
  // Classic repair deficit: a server down during adds misses the new
  // copies; after it recovers, a scan re-replicates them. The sharded
  // broadcast of repair_scan must do exactly what one sequential
  // RepairProcess over the same service does.
  const auto keys = make_keys(6);
  const auto cfg =
      base_config(core::StrategyKind::kFullReplication, 1, 4, 33);

  core::PartialLookupService sequential(cfg);
  net::RepairProcess seq_repair(sequential.cluster().failures(),
                                net::RepairProcess::Config{1.0});
  sim::ShardedRuntimeConfig rcfg;
  rcfg.shards = 2;
  rcfg.service = cfg;
  sim::ShardedRuntime runtime(rcfg);

  const std::vector<Entry> batch{11, 22, 33, 44, 55};
  for (const auto& key : keys) {
    sequential.place(key, batch);
    seq_repair.add_target(&sequential.strategy(key));
    runtime.place(key, batch);
  }

  sequential.fail_server(2);
  runtime.fail_server(2);
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const Entry v = static_cast<Entry>(900 + k);
    sequential.add(keys[k], v);
    runtime.add(keys[k], v);
  }
  sequential.recover_server(2);
  runtime.recover_server(2);
  // The recovered server is missing the adds it slept through.
  EXPECT_TRUE(seq_repair.scan_once(1.0));
  runtime.repair_scan(1.0);

  EXPECT_GT(seq_repair.replicas_created(), 0u);
  EXPECT_EQ(runtime.total_repairs_created(), seq_repair.replicas_created());
  EXPECT_EQ(runtime.total_storage(), sequential.total_storage());
  // A second pass with no epoch change early-outs on every shard.
  EXPECT_FALSE(seq_repair.scan_once(2.0));
  runtime.repair_scan(2.0);
  EXPECT_EQ(runtime.total_repairs_created(), seq_repair.replicas_created());
  // Repair traffic lands on the repair ledger, folds bit-identically, and
  // conserves.
  const auto repair_net = runtime.total_repair_transport();
  EXPECT_EQ(repair_net,
            sequential.cluster().network().repair_stats());
  EXPECT_GT(repair_net.sent, 0u);
  EXPECT_TRUE(repair_net.conservation_holds());
  EXPECT_TRUE(runtime.shards_consistent());
}

TEST(ShardedRuntime, KeyRoutingIsStableAndShardLocal) {
  const auto keys = make_keys(32);
  sim::ShardedRuntimeConfig rcfg;
  rcfg.shards = 4;
  rcfg.service = base_config(core::StrategyKind::kRoundRobin, 2, 4, 5);
  sim::ShardedRuntime runtime(rcfg);

  const std::vector<Entry> batch{1, 2, 3};
  std::vector<std::size_t> expected_keys_per_shard(runtime.shards(), 0);
  for (const auto& key : keys) {
    runtime.place(key, batch);
    EXPECT_EQ(runtime.shard_of(key), shard_of_key(key, runtime.shards()));
    ++expected_keys_per_shard[runtime.shard_of(key)];
  }
  runtime.drain();
  for (std::size_t s = 0; s < runtime.shards(); ++s) {
    // Every key lives on exactly the shard the router names.
    EXPECT_EQ(runtime.shard_service(s).num_keys(),
              expected_keys_per_shard[s]);
  }
  // Lookups on a key tally only on its owner shard.
  for (std::size_t i = 0; i < 64; ++i) {
    runtime.lookup(keys[i % keys.size()], 2);
  }
  runtime.drain();
  std::uint64_t tallied = 0;
  for (std::size_t s = 0; s < runtime.shards(); ++s) {
    tallied += runtime.shard_lookups(s).lookups;
  }
  EXPECT_EQ(tallied, 64u);
  const auto pk = runtime.key_lookup_totals(keys[0]);
  EXPECT_EQ(pk.lookups, 2u);  // 64 lookups round-robin over 32 keys
}

TEST(ShardedRuntime, TasksRunOnTheirShardInQueueOrder) {
  sim::ShardedRuntimeConfig rcfg;
  rcfg.shards = 2;
  rcfg.service = base_config(core::StrategyKind::kRoundRobin, 2, 4, 1);
  sim::ShardedRuntime runtime(rcfg);

  std::vector<std::size_t> ran(runtime.shards(), 0);
  std::atomic<int> total{0};
  runtime.run_on_shards([&ran, &total](std::size_t s,
                                       core::PartialLookupService& svc) {
    ran[s] = svc.num_servers();  // distinct slots: no race
    total.fetch_add(1, std::memory_order_relaxed);
  });
  runtime.drain();
  EXPECT_EQ(total.load(), 2);
  EXPECT_EQ(ran[0], 4u);
  EXPECT_EQ(ran[1], 4u);

  // run_on_shard targets one shard only, and sees ops queued before it.
  runtime.place("task-key", std::vector<Entry>{1, 2, 3});
  const std::size_t owner = runtime.shard_of("task-key");
  std::size_t seen_keys = 0;
  runtime.run_on_shard(owner, [&seen_keys](std::size_t,
                                           core::PartialLookupService& svc) {
    seen_keys = svc.num_keys();
  });
  runtime.drain();
  EXPECT_EQ(seen_keys, 1u);
}

TEST(ShardedRuntime, UnknownKeysBehaveLikeTheSequentialService) {
  sim::ShardedRuntimeConfig rcfg;
  rcfg.shards = 2;
  rcfg.service = base_config(core::StrategyKind::kRoundRobin, 2, 4, 2);
  sim::ShardedRuntime runtime(rcfg);

  // Lookup and erase on a never-placed key: empty results, no tenant.
  runtime.erase("ghost", 1);
  runtime.lookup("ghost", 3);
  EXPECT_FALSE(runtime.contains_key("ghost"));
  EXPECT_EQ(runtime.num_keys(), 0u);
  const auto totals = runtime.lookup_totals();
  EXPECT_EQ(totals.lookups, 1u);
  EXPECT_EQ(totals.satisfied, 0u);
  EXPECT_EQ(totals.servers_contacted, 0u);
  EXPECT_EQ(runtime.key_lookup_totals("ghost").lookups, 0u);
  EXPECT_EQ(runtime.key_transport("ghost"), net::TransportStats{});
}

// --- the route table ------------------------------------------------------
//
// The coordinator gives each key a dense route index on its shard; the
// worker resolves that index to its KeyId on first touch. These cases
// touch keys in the orders that can leave a route unresolved or stale, and
// hold the runtime to a sequential service given the same ops.

/// The sequential side of a route-table case: the service plus the tallies
/// the runtime's workers keep (per key only once the key exists).
struct SequentialTally {
  explicit SequentialTally(const core::ServiceConfig& cfg) : service(cfg) {}

  void lookup(const Key& key, std::size_t t) {
    const bool known = service.contains_key(key);
    const core::LookupResult r = service.partial_lookup(key, t);
    metrics::ShardLookupCounters delta;
    delta.lookups = 1;
    delta.satisfied = r.satisfied ? 1 : 0;
    delta.servers_contacted = r.servers_contacted;
    delta.entries_returned = r.entries.size();
    totals.merge(delta);
    if (known) per_key[key].merge(delta);
  }

  core::PartialLookupService service;
  metrics::ShardLookupCounters totals;
  std::map<Key, metrics::ShardLookupCounters> per_key;
};

void expect_matches(sim::ShardedRuntime& runtime, SequentialTally& seq,
                    const std::vector<Key>& keys) {
  for (const Key& key : keys) {
    EXPECT_EQ(runtime.key_lookup_totals(key), seq.per_key[key]) << key;
    if (seq.service.contains_key(key)) {
      EXPECT_EQ(runtime.key_transport(key), seq.service.key_transport(key))
          << key;
    }
  }
  EXPECT_EQ(runtime.lookup_totals(), seq.totals);
  EXPECT_EQ(runtime.total_transport(), seq.service.total_transport());
  EXPECT_EQ(runtime.num_keys(), seq.service.num_keys());
}

/// The message `fn` throws as a std::logic_error, or "" if it returns.
template <typename Fn>
std::string logic_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

sim::ShardedRuntimeConfig route_config() {
  sim::ShardedRuntimeConfig rcfg;
  rcfg.shards = 2;
  rcfg.service = base_config(core::StrategyKind::kHash, 2, 6, 41);
  return rcfg;
}

TEST(ShardedRuntimeRoutes, ResolveAKeyATaskInterned) {
  const auto rcfg = route_config();
  sim::ShardedRuntime runtime(rcfg);
  SequentialTally seq(rcfg.service);
  const auto keys = make_keys(6);
  const std::vector<Entry> batch{1, 2, 3, 4, 5, 6, 7};

  // Each key enters its shard through the service's own string API, inside
  // a task: the runtime first sees its name on the lookups below.
  for (const Key& key : keys) {
    seq.service.place(key, batch);
    runtime.run_on_shard(runtime.shard_of(key),
                         [key, batch](std::size_t,
                                      core::PartialLookupService& svc) {
                           svc.place(key, batch);
                         });
  }
  for (std::size_t i = 0; i < 60; ++i) {
    seq.lookup(keys[i % keys.size()], 3);
    runtime.lookup(keys[i % keys.size()], 3);
  }
  expect_matches(runtime, seq, keys);
}

TEST(ShardedRuntimeRoutes, ResolveAKeyLookedUpBeforeItsPlace) {
  const auto rcfg = route_config();
  sim::ShardedRuntime runtime(rcfg);
  SequentialTally seq(rcfg.service);
  const auto keys = make_keys(6);
  const std::vector<Entry> batch{10, 20, 30, 40, 50};

  // The first touch of every key is a lookup and an erase of a key that
  // does not exist yet; the route stays unresolved until the place.
  for (const Key& key : keys) {
    seq.lookup(key, 2);
    runtime.lookup(key, 2);
    seq.service.erase(key, 10);
    runtime.erase(key, 10);
  }
  EXPECT_EQ(runtime.num_keys(), 0u);
  for (const Key& key : keys) {
    seq.service.place(key, batch);
    runtime.place(key, batch);
  }
  for (std::size_t i = 0; i < 60; ++i) {
    seq.lookup(keys[i % keys.size()], 2);
    runtime.lookup(keys[i % keys.size()], 2);
  }
  expect_matches(runtime, seq, keys);
}

TEST(ShardedRuntimeRoutes, RestoredRuntimeResolvesKeysTouchedBeforeTheSnapshot) {
  const auto rcfg = route_config();
  SequentialTally seq(rcfg.service);
  auto keys = make_keys(6);
  const std::vector<Entry> batch{5, 6, 7, 8, 9, 10};

  std::vector<std::uint8_t> snap;
  {
    sim::ShardedRuntime original(rcfg);
    for (const Key& key : keys) {
      seq.service.place(key, batch);
      original.place(key, batch);
    }
    for (std::size_t i = 0; i < 30; ++i) {
      seq.lookup(keys[i % keys.size()], 3);
      original.lookup(keys[i % keys.size()], 3);
    }
    // A key the original only looked up: routed, but never interned.
    seq.lookup("late", 3);
    original.lookup("late", 3);
    snap = original.save_snapshot();
  }

  sim::ShardedRuntime restored(rcfg);
  ASSERT_EQ(restored.load_snapshot(snap), std::nullopt);
  keys.push_back("late");
  seq.service.place("late", batch);
  restored.place("late", batch);
  for (std::size_t i = 0; i < 70; ++i) {
    seq.lookup(keys[i % keys.size()], 3);
    restored.lookup(keys[i % keys.size()], 3);
  }
  expect_matches(restored, seq, keys);
}

TEST(ShardedRuntimeRoutes, RejectedRestoreLeavesRoutesConsistent) {
  const auto rcfg = route_config();
  std::vector<std::uint8_t> snap;
  {
    sim::ShardedRuntime other(rcfg);
    other.place("other", std::vector<Entry>{1, 2});
    snap = other.save_snapshot();
  }
  sim::ShardedRuntime runtime(rcfg);
  SequentialTally seq(rcfg.service);
  const auto keys = make_keys(8);
  const std::vector<Entry> batch{3, 4, 5, 6, 7};
  const auto place_and_look = [&](std::size_t from, std::size_t to) {
    for (std::size_t k = from; k < to; ++k) {
      seq.service.place(keys[k], batch);
      runtime.place(keys[k], batch);
    }
    for (std::size_t i = 0; i < 40; ++i) {
      seq.lookup(keys[i % to], 3);
      runtime.lookup(keys[i % to], 3);
    }
  };
  place_and_look(0, 4);
  // A runtime that already holds keys refuses a restore; its routes restart,
  // and keys placed afterwards must not inherit the earlier keys' ids.
  ASSERT_NE(runtime.load_snapshot(snap), std::nullopt);
  place_and_look(4, keys.size());
  expect_matches(runtime, seq, keys);
}

TEST(ShardedRuntimeRoutes, APendingWorkerErrorThrowsBeforeARestoreBegins) {
  // An op that failed on a worker leaves its error for the next drain. A
  // restore must report it before it loads anything, so that the runtime
  // is untouched and the same restore can simply be retried.
  auto rcfg = route_config();
  rcfg.service.strategy_policy =
      [](const Key& key) -> std::optional<core::StrategyConfig> {
    if (key != "bad") return std::nullopt;
    core::StrategyConfig bad;
    bad.kind = core::StrategyKind::kRoundRobin;
    bad.param = 9;
    return bad;
  };
  SequentialTally seq(rcfg.service);
  const auto keys = make_keys(5);
  const std::vector<Entry> batch{2, 4, 6, 8, 10};
  std::vector<std::uint8_t> snap;
  {
    sim::ShardedRuntime original(rcfg);
    for (const Key& key : keys) {
      seq.service.place(key, batch);
      original.place(key, batch);
    }
    // The snapshot's host count differs from the config's.
    EXPECT_EQ(original.add_server(), seq.service.add_server());
    for (std::size_t i = 0; i < 20; ++i) {
      seq.lookup(keys[i % keys.size()], 3);
      original.lookup(keys[i % keys.size()], 3);
    }
    snap = original.save_snapshot();
  }

  sim::ShardedRuntime restored(rcfg);
  const std::string place_error =
      logic_error_of([&] { seq.service.place("bad", batch); });
  ASSERT_NE(place_error, "");
  restored.place("bad", batch);
  EXPECT_EQ(logic_error_of([&] { (void)restored.load_snapshot(snap); }),
            place_error);
  ASSERT_EQ(restored.load_snapshot(snap), std::nullopt);
  EXPECT_TRUE(restored.shards_consistent());
  EXPECT_EQ(restored.add_server(), seq.service.add_server());
  for (std::size_t i = 0; i < 30; ++i) {
    seq.lookup(keys[i % keys.size()], 3);
    restored.lookup(keys[i % keys.size()], 3);
  }
  expect_matches(restored, seq, keys);
}

// --- worker errors and idle workers ---------------------------------------

TEST(ShardedRuntime, WorkerErrorsReachTheCallerAtTheNextDrain) {
  // A policy only key "bad" breaks: Round-Robin with y = 9 on 8 servers.
  // The sequential service throws from place(); the runtime must hand the
  // same error to the control thread at its next drain, exactly once, and
  // keep serving every other key as the sequential service does.
  sim::ShardedRuntimeConfig rcfg;
  rcfg.shards = 2;
  rcfg.service = base_config(core::StrategyKind::kRoundRobin, 2, 8, 13);
  rcfg.service.strategy_policy =
      [](const Key& key) -> std::optional<core::StrategyConfig> {
    if (key != "bad") return std::nullopt;
    core::StrategyConfig bad;
    bad.kind = core::StrategyKind::kRoundRobin;
    bad.param = 9;
    return bad;
  };
  sim::ShardedRuntime runtime(rcfg);
  SequentialTally seq(rcfg.service);
  const std::vector<Entry> batch{1, 2, 3, 4, 5, 6, 7, 8};

  const std::string place_error =
      logic_error_of([&] { seq.service.place("bad", batch); });
  ASSERT_NE(place_error, "");
  runtime.place("bad", batch);
  EXPECT_EQ(logic_error_of([&] { runtime.drain(); }), place_error);
  EXPECT_EQ(logic_error_of([&] { runtime.drain(); }), "");

  // An aggregate accessor drains, so it reports the error too. The ops
  // queued behind the failing one still ran.
  const std::string add_error =
      logic_error_of([&] { seq.service.add("bad", 9); });
  ASSERT_NE(add_error, "");
  runtime.add("bad", 9);
  seq.lookup("bad", 3);
  runtime.lookup("bad", 3);
  EXPECT_EQ(logic_error_of([&] { (void)runtime.num_keys(); }), add_error);
  EXPECT_EQ(runtime.lookup_totals().lookups, 1u);

  const auto keys = make_keys(6);
  for (const Key& key : keys) {
    seq.service.place(key, batch);
    runtime.place(key, batch);
  }
  for (std::size_t i = 0; i < 60; ++i) {
    seq.lookup(keys[i % keys.size()], 3);
    runtime.lookup(keys[i % keys.size()], 3);
  }
  expect_matches(runtime, seq, keys);
  EXPECT_FALSE(runtime.contains_key("bad"));
}

TEST(ShardedRuntime, AKeyAFailingOpInternedIsServedLikeTheSequentialService) {
  // Key "budgeted" takes a storage-budget Round-Robin config. It builds,
  // but it is static-only, so its first op, an add(), throws after the key
  // was interned. The sequential service keeps the key; the runtime must
  // keep it too, with its tally slot registered before any lookup.
  sim::ShardedRuntimeConfig rcfg;
  rcfg.shards = 2;
  rcfg.service = base_config(core::StrategyKind::kRoundRobin, 2, 6, 17);
  rcfg.service.strategy_policy =
      [](const Key& key) -> std::optional<core::StrategyConfig> {
    if (key != "budgeted") return std::nullopt;
    core::StrategyConfig budgeted;
    budgeted.kind = core::StrategyKind::kRoundRobin;
    budgeted.param = 2;
    budgeted.storage_budget = 8;
    return budgeted;
  };
  sim::ShardedRuntime runtime(rcfg);
  SequentialTally seq(rcfg.service);
  auto keys = make_keys(4);
  const std::vector<Entry> batch{1, 2, 3, 4, 5, 6};
  for (const Key& key : keys) {
    seq.service.place(key, batch);
    runtime.place(key, batch);
  }

  const std::string add_error =
      logic_error_of([&] { seq.service.add("budgeted", 7); });
  ASSERT_NE(add_error, "");
  runtime.add("budgeted", 7);
  EXPECT_EQ(logic_error_of([&] { runtime.drain(); }), add_error);
  EXPECT_TRUE(runtime.contains_key("budgeted"));

  keys.push_back("budgeted");
  const auto look = [&] {
    for (std::size_t i = 0; i < 40; ++i) {
      seq.lookup(keys[i % keys.size()], 2);
      runtime.lookup(keys[i % keys.size()], 2);
    }
  };
  look();
  expect_matches(runtime, seq, keys);
  seq.service.place("budgeted", batch);
  runtime.place("budgeted", batch);
  look();
  expect_matches(runtime, seq, keys);
}

TEST(ShardedRuntime, ParkedWorkersWakeForEveryOp) {
  // Every round leaves the workers idle long enough to park, so each op
  // below is pushed to a parked worker and must wake it: a lost wake-up
  // hangs drain() (and the ctest TIMEOUT turns that into a failure). The
  // results must still match a sequential replay op for op.
  sim::ShardedRuntimeConfig rcfg;
  rcfg.shards = 4;
  rcfg.service = base_config(core::StrategyKind::kRoundRobin, 2, 6, 29);
  sim::ShardedRuntime runtime(rcfg);
  SequentialTally seq(rcfg.service);
  const auto keys = make_keys(12);
  Rng rng(2029);
  Entry next_entry = 1;

  for (int round = 0; round < 200; ++round) {
    const std::uint64_t ops = 1 + rng.uniform(3);
    for (std::uint64_t o = 0; o < ops; ++o) {
      const Key& key = keys[rng.uniform(keys.size())];
      const auto server = static_cast<ServerId>(rng.uniform(6));
      switch (rng.uniform(5)) {
        case 0: {
          const std::vector<Entry> batch{next_entry, next_entry + 1,
                                         next_entry + 2};
          next_entry += 3;
          seq.service.place(key, batch);
          runtime.place(key, batch);
          break;
        }
        case 1:
          seq.service.add(key, next_entry);
          runtime.add(key, next_entry);
          ++next_entry;
          break;
        case 2:
          seq.lookup(key, 2);
          runtime.lookup(key, 2);
          break;
        case 3:
          seq.service.fail_server(server);
          runtime.fail_server(server);
          break;
        default:
          seq.service.recover_server(server);
          runtime.recover_server(server);
          break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    runtime.drain();
  }
  expect_matches(runtime, seq, keys);
  EXPECT_TRUE(runtime.shards_consistent());
}

}  // namespace
}  // namespace pls
