// Allocation-regression tests (tier1, built only under -DPLS_COUNT_ALLOCS=ON;
// scripts/perf_check.sh runs them). They pin the properties the zero-copy
// refactor and its follow-ups bought:
//
//   * partial_lookup runs in O(1) heap allocations regardless of how many
//     servers it contacts — the reply path reuses one pooled buffer and the
//     client's scratch lives on the stack — and, at the paper's answer
//     sizes, in exactly one: its answer.
//   * broadcast fan-out performs zero payload deep-copies no matter the
//     cluster size — Message copies only bump the SharedEntries refcount.
//   * the §6 availability probe and steady-state add/delete allocate
//     nothing: the probe reads the stores in place, and an update's client
//     target and fan-out list come from cached or stack state.
//
// The thresholds are deliberately loose constants (not exact counts) so the
// tests survive minor library changes while still failing loudly if a copy
// or per-server allocation sneaks back into the hot path.
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "pls/common/alloc_stats.hpp"
#include "pls/core/service.hpp"
#include "pls/core/strategy_factory.hpp"
#include "pls/metrics/availability.hpp"
#include "pls/net/network.hpp"
#include "pls/net/repair.hpp"
#include "pls/net/shared_entries.hpp"
#include "pls/runtime/sharded_runtime.hpp"
#include "pls/sim/simulator.hpp"
#include "pls/sim/spsc_queue.hpp"

namespace pls {
namespace {

using core::StrategyConfig;
using core::StrategyKind;

/// Swallows every delivery; the broadcast tests only measure the transport.
class NullServer final : public net::Server {
 public:
  using Server::Server;
  void on_message(const net::Message&, net::Network&) override {}
  net::Message on_rpc(const net::Message&, net::Network&) override {
    return net::Ack{};
  }
};

std::vector<Entry> iota_entries(std::size_t h) {
  std::vector<Entry> out(h);
  for (std::size_t i = 0; i < h; ++i) out[i] = i + 1;
  return out;
}

/// Steady-state allocations per lookup: warm the pool/scratch first, then
/// average over a batch.
double allocs_per_lookup(core::Strategy& strategy, std::size_t t,
                         int iterations) {
  for (int i = 0; i < 32; ++i) strategy.partial_lookup(t);  // warm-up
  const AllocStats before = AllocStats::current();
  for (int i = 0; i < iterations; ++i) strategy.partial_lookup(t);
  const AllocStats delta = AllocStats::current() - before;
  return static_cast<double>(delta.allocations) / iterations;
}

TEST(AllocRegression, CountingIsEnabledInThisBuild) {
  ASSERT_TRUE(AllocStats::counting_enabled())
      << "test_alloc_regression must be built with -DPLS_COUNT_ALLOCS=ON";
  const AllocStats before = AllocStats::current();
  auto* p = new std::vector<Entry>(100);
  delete p;
  const AllocStats delta = AllocStats::current() - before;
  EXPECT_GE(delta.allocations, 1u);
  EXPECT_GE(delta.bytes, 100 * sizeof(Entry));
  EXPECT_EQ(delta.allocations, delta.deallocations);
}

TEST(AllocRegression, PartialLookupAllocatesO1Buffers) {
  // A lookup that contacts m servers must not pay O(m) allocations. Compare
  // steady-state allocs/lookup on a small and a large cluster of the same
  // strategy: the large cluster contacts ~8x the servers, so an O(m) reply
  // path would show a ~8x allocation blow-up. Allow 2x slack for incidental
  // variation plus a small absolute ceiling.
  for (const StrategyKind kind :
       {StrategyKind::kRandomServer, StrategyKind::kHash}) {
    auto small = core::make_strategy(
        StrategyConfig{.kind = kind, .param = 4, .seed = 7}, 8);
    auto large = core::make_strategy(
        StrategyConfig{.kind = kind, .param = 4, .seed = 7}, 64);
    const auto entries = iota_entries(256);
    small->place(entries);
    large->place(entries);
    const double small_allocs = allocs_per_lookup(*small, 40, 200);
    const double large_allocs = allocs_per_lookup(*large, 40, 200);
    EXPECT_LE(large_allocs, 2.0 * small_allocs + 4.0)
        << "allocs/lookup scales with cluster size for "
        << core::to_string(kind);
    EXPECT_LE(large_allocs, 16.0)
        << "allocs/lookup above the O(1) ceiling for "
        << core::to_string(kind);
  }
}

/// Every family at the paper's §6 shape (x = 20, y = 2).
constexpr std::pair<StrategyKind, std::size_t> kFamilies[] = {
    {StrategyKind::kFullReplication, 1}, {StrategyKind::kFixed, 20},
    {StrategyKind::kRandomServer, 20},   {StrategyKind::kRoundRobin, 2},
    {StrategyKind::kHash, 2},            {StrategyKind::kMultiProbe, 2}};

TEST(AllocRegression, PartialLookupAllocatesAtMostItsAnswer) {
  // In steady state a lookup's only heap block is its answer: the up list is
  // FailureState's cached span, the dedup set and the contact order live on
  // the stack, and the answer vector is reserved once. Every family, at a
  // t each family answers from one server and at one that needs several.
  for (const auto& [kind, param] : kFamilies) {
    for (const std::size_t t : {std::size_t{5}, std::size_t{15}}) {
      auto strategy = core::make_strategy(
          StrategyConfig{.kind = kind, .param = param, .seed = 7}, 8);
      strategy->place(iota_entries(100));
      EXPECT_LE(allocs_per_lookup(*strategy, t, 200), 1.0)
          << core::to_string(kind) << " at t=" << t;
    }
  }
}

TEST(AllocRegression, SatisfiabilityProbeIsAllocationFree) {
  // The Fig 12 probe reads the tenants' stores in place and dedups into an
  // inline set, so it allocates nothing up to t = 32. t = 32 needs the
  // merge across servers for every coverage family at this shape.
  for (const auto& [kind, param] : kFamilies) {
    auto strategy = core::make_strategy(
        StrategyConfig{.kind = kind, .param = param, .seed = 7}, 10);
    strategy->place(iota_entries(100));
    for (const std::size_t t :
         {std::size_t{1}, std::size_t{15}, std::size_t{32}}) {
      const AllocStats before = AllocStats::current();
      bool satisfiable = false;
      for (int i = 0; i < 100; ++i) {
        satisfiable = metrics::lookup_satisfiable(*strategy, t);
      }
      const AllocStats delta = AllocStats::current() - before;
      // Fixed-x answers from one server holding x = 20 entries.
      EXPECT_EQ(satisfiable, kind != StrategyKind::kFixed || t <= param)
          << core::to_string(kind) << " at t=" << t;
      EXPECT_EQ(delta.allocations, 0u)
          << core::to_string(kind) << " at t=" << t;
    }
  }
}

TEST(AllocRegression, SteadyStateUpdatesAreAllocationFree) {
  // add/delete: the client picks its target from the cached up list, and
  // Hash-y and MultiProbe build their fan-out lists on the stack. On a
  // lossy link every delivery also passes its host's dedup window, which
  // allocates nothing once it holds its 4,096 sequence numbers; 20,000
  // warm-up pairs fill every host's window. Pairs of adding and deleting a
  // fresh entry keep every store at its steady-state size; warm up first
  // so store capacity has settled.
  struct Link {
    const char* name;
    double drop;
    double dup;
    std::uint32_t attempts;
    int warm;
  };
  constexpr Link kLinks[] = {{"reliable", 0.0, 0.0, 4, 64},
                             {"lossy", 0.02, 0.01, 3, 20000}};
  constexpr int kPairs = 2000;
  for (const Link& link : kLinks) {
    for (const auto& [kind, param] : kFamilies) {
      StrategyConfig cfg{.kind = kind, .param = param, .seed = 7};
      cfg.link.drop_probability = link.drop;
      cfg.link.duplicate_probability = link.dup;
      cfg.retry.max_attempts = link.attempts;
      auto strategy = core::make_strategy(cfg, 10);
      strategy->place(iota_entries(100));
      Entry next = 1000;
      for (int i = 0; i < link.warm; ++i, ++next) {
        strategy->add(next);
        strategy->erase(next);
      }
      const AllocStats before = AllocStats::current();
      for (int i = 0; i < kPairs; ++i, ++next) {
        strategy->add(next);
        strategy->erase(next);
      }
      const AllocStats delta = AllocStats::current() - before;
      EXPECT_LE(static_cast<double>(delta.allocations) / (2.0 * kPairs), 0.01)
          << core::to_string(kind) << " on a " << link.name << " link: "
          << delta.allocations << " allocations over " << 2 * kPairs
          << " updates";
    }
  }
}

TEST(AllocRegression, BroadcastPerformsZeroPayloadCopies) {
  // Fan a 512-entry StoreBatch out to clusters of growing size. The payload
  // must never be deep-copied (deep_copy_count frozen) and per-broadcast
  // allocations must stay O(1), not O(n * h).
  const auto payload_entries = iota_entries(512);
  for (const std::size_t n : {std::size_t{4}, std::size_t{25},
                              std::size_t{100}}) {
    auto failures = net::make_failure_state(n);
    net::Network network(failures);
    for (ServerId i = 0; i < static_cast<ServerId>(n); ++i) {
      network.add_server(std::make_unique<NullServer>(i));
    }
    net::StoreBatch batch{
        net::SharedEntries{std::span<const Entry>(payload_entries)}};
    network.broadcast(0, batch);  // warm-up
    const std::uint64_t copies_before = net::SharedEntries::deep_copy_count();
    const AllocStats before = AllocStats::current();
    constexpr int kBroadcasts = 50;
    for (int i = 0; i < kBroadcasts; ++i) network.broadcast(0, batch);
    const AllocStats delta = AllocStats::current() - before;
    EXPECT_EQ(net::SharedEntries::deep_copy_count(), copies_before)
        << "broadcast deep-copied the payload at n=" << n;
    const double allocs = static_cast<double>(delta.allocations) / kBroadcasts;
    EXPECT_LE(allocs, 4.0) << "broadcast allocates per receiver at n=" << n;
  }
}

TEST(AllocRegression, IdleRepairScanIsAllocationFree) {
  // A repair scan on an unchanged failure epoch must do zero work and zero
  // heap traffic: the scan reads the epoch, sees no change, and re-arms
  // its inline timer-wheel event. Warm the wheel and the first (real)
  // scan, then measure a long run of idle epochs.
  auto failures = net::make_failure_state(8);
  auto strategy = core::make_strategy(
      StrategyConfig{.kind = StrategyKind::kRoundRobin, .param = 2, .seed = 5},
      8, failures);
  strategy->place(iota_entries(64));

  sim::Simulator sim;
  net::RepairProcess repair(failures, net::RepairProcess::Config{1.0});
  repair.add_target(strategy.get());
  repair.arm(sim);
  sim.run_until(50.0);  // warm-up: first scan + wheel slots
  ASSERT_GT(repair.scans(), 0u);

  const std::uint64_t scans_before = repair.scans();
  const AllocStats before = AllocStats::current();
  sim.run_until(1050.0);  // 1000 idle scans
  const AllocStats delta = AllocStats::current() - before;
  const std::uint64_t idle = repair.scans() - scans_before;
  ASSERT_GE(idle, 1000u);
  EXPECT_EQ(repair.idle_scans() + 1, repair.scans())
      << "only the first scan may do real work in a quiet cluster";
  EXPECT_EQ(delta.allocations, 0u)
      << "idle repair scans allocated (" << delta.allocations << " allocs, "
      << delta.bytes << " bytes over " << idle << " scans)";
}

TEST(AllocRegression, SpscQueueSteadyStateIsAllocationFree) {
  // The ring's storage is allocated once at construction; a steady-state
  // push/pop cycle must never touch the heap — this is what keeps the
  // sharded runtime's lookup dispatch allocation-free.
  sim::SpscQueue<std::uint64_t> q(64);
  const AllocStats before = AllocStats::current();
  std::uint64_t out = 0;
  std::size_t ok = 0;
  constexpr std::size_t kCycles = 100'000;
  for (std::uint64_t i = 0; i < kCycles; ++i) {
    if (q.try_push(std::uint64_t(i)) && q.try_pop(out) && out == i) ++ok;
  }
  const AllocStats delta = AllocStats::current() - before;
  EXPECT_EQ(ok, kCycles);
  EXPECT_EQ(delta.allocations, 0u)
      << "SpscQueue push/pop allocated (" << delta.allocations
      << " allocs over " << kCycles << " cycles)";
}

TEST(AllocRegression, ShardedLookupDispatchAddsZeroAllocations) {
  // Dispatching a lookup through the sharded runtime — intern hit, ShardOp
  // move through the ring, worker-side tally — must add zero allocations
  // over the sequential service executing the identical lookups. Both
  // sides run the same deterministic service ops, so the allocation counts
  // must be exactly equal.
  core::ServiceConfig cfg;
  cfg.num_servers = 8;
  cfg.default_strategy =
      StrategyConfig{.kind = StrategyKind::kRoundRobin, .param = 2, .seed = 0};
  cfg.seed = 11;
  const Key key = "alloc-key";
  const auto batch = iota_entries(64);
  constexpr int kWarm = 64;
  constexpr int kMeasured = 500;

  core::PartialLookupService sequential(cfg);
  sequential.place(key, batch);
  for (int i = 0; i < kWarm; ++i) (void)sequential.partial_lookup(key, 8);
  const AllocStats seq_before = AllocStats::current();
  for (int i = 0; i < kMeasured; ++i) {
    (void)sequential.partial_lookup(key, 8);
  }
  const AllocStats seq_delta = AllocStats::current() - seq_before;

  sim::ShardedRuntimeConfig rcfg;
  rcfg.shards = 1;
  rcfg.service = cfg;
  sim::ShardedRuntime runtime(rcfg);
  runtime.place(key, batch);
  for (int i = 0; i < kWarm; ++i) runtime.lookup(key, 8);
  runtime.drain();
  const AllocStats rt_before = AllocStats::current();
  for (int i = 0; i < kMeasured; ++i) runtime.lookup(key, 8);
  runtime.drain();
  const AllocStats rt_delta = AllocStats::current() - rt_before;

  EXPECT_EQ(rt_delta.allocations, seq_delta.allocations)
      << "sharded dispatch allocated " << rt_delta.allocations
      << " vs sequential " << seq_delta.allocations << " over " << kMeasured
      << " lookups";
}

TEST(AllocRegression, MigrationAndWipeReturnSpillCapacity) {
  // live_bytes must track the data actually held, not high-water capacity:
  // after a graceful leave drains a server and after a wipe, the freed
  // EntryStore spill capacity goes back to the allocator instead of
  // lingering as dead heap. Pin both paths with live-byte deltas.
  auto strategy = core::make_strategy(
      StrategyConfig{.kind = StrategyKind::kHash, .param = 2, .seed = 9}, 6);
  strategy->place(iota_entries(4096));

  const std::uint64_t populated = AllocStats::current().live_bytes;

  // Graceful leave: the leaver's copies migrate off and its store must
  // release its spill, so the net live growth is only the migrated copies
  // (bounded well below the leaver's freed capacity).
  const std::size_t leaver_held = strategy->server_state(5).store().size();
  ASSERT_GT(leaver_held, 64u);  // deep in spill territory
  strategy->remove_server(5, net::Loss::kGraceful);
  EXPECT_TRUE(strategy->server_state(5).store().is_inline());
  const std::uint64_t after_leave = AllocStats::current().live_bytes;
  // The migrated copies re-home onto survivors, but the leaver's spill
  // (>= leaver_held entries) is gone; live bytes must not have grown by
  // anything close to a retained spill block.
  EXPECT_LT(after_leave, populated + leaver_held * sizeof(Entry))
      << "graceful leave retained the drained server's spill capacity";

  // Wipe: destroys a server's copies outright — live bytes must drop by
  // at least the wiped entries' storage.
  const std::size_t wiped_held = strategy->server_state(3).store().size();
  ASSERT_GT(wiped_held, 64u);
  strategy->wipe_server(3);
  EXPECT_TRUE(strategy->server_state(3).store().is_inline());
  const std::uint64_t after_wipe = AllocStats::current().live_bytes;
  EXPECT_LE(after_wipe + wiped_held * sizeof(Entry), after_leave)
      << "wipe_server retained the wiped store's spill capacity";
}

TEST(AllocRegression, DeferredBroadcastAlsoSkipsPayloadCopies) {
  // Deferred mode copies the Message into each scheduled delivery event;
  // those copies must not clone the payload either.
  constexpr std::size_t n = 100;
  auto failures = net::make_failure_state(n);
  net::Network network(failures);
  for (ServerId i = 0; i < n; ++i) {
    network.add_server(std::make_unique<NullServer>(i));
  }
  sim::Simulator sim;
  network.attach_simulator(&sim, 0.1);
  net::StoreBatch batch{
      net::SharedEntries::adopt(iota_entries(512))};
  const std::uint64_t copies_before = net::SharedEntries::deep_copy_count();
  network.broadcast(0, batch);
  sim.run_all();
  EXPECT_EQ(net::SharedEntries::deep_copy_count(), copies_before);
}

}  // namespace
}  // namespace pls
