// Behaviour tests for the Hash-y strategy (§3.5, §5.5).
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "pls/core/hash_y.hpp"
#include "pls/metrics/coverage.hpp"
#include "pls/metrics/storage.hpp"

namespace pls::core {
namespace {

std::vector<Entry> iota_entries(std::size_t h) {
  std::vector<Entry> out(h);
  for (std::size_t i = 0; i < h; ++i) out[i] = i + 1;
  return out;
}

HashStrategy make(std::size_t n, std::size_t y, std::uint64_t seed = 1,
                  std::size_t budget = 0) {
  return HashStrategy(StrategyConfig{.kind = StrategyKind::kHash,
                                     .param = y,
                                     .storage_budget = budget,
                                     .seed = seed},
                      n, net::make_failure_state(n));
}

/// The distinct servers Hash-y stores `v` on (ids equal ranks here: no
/// server has left).
TargetList targets_of(const HashStrategy& s, Entry v) {
  TargetList out;
  s.family().targets(v, s.y(), out);
  return out;
}

TEST(Hash, EntriesLandExactlyOnTheirHashTargets) {
  auto s = make(10, 3);
  s.place(iota_entries(50));
  const auto p = s.placement();
  for (Entry v = 1; v <= 50; ++v) {
    std::set<ServerId> expected;
    for (ServerId t : targets_of(s, v)) expected.insert(t);
    std::set<ServerId> actual;
    for (ServerId id = 0; id < 10; ++id) {
      for (Entry e : p.servers[id]) {
        if (e == v) actual.insert(id);
      }
    }
    EXPECT_EQ(actual, expected) << "entry " << v;
  }
}

TEST(Hash, CoverageIsCompleteWheneverYIsPositive) {
  for (std::size_t y : {1u, 2u, 4u}) {
    auto s = make(10, y);
    s.place(iota_entries(100));
    EXPECT_EQ(metrics::max_coverage(s.placement()), 100u);
  }
}

TEST(Hash, StorageMatchesCollisionAwareExpectation) {
  // Table 1: E[storage] = h*n*(1-(1-1/n)^y).
  constexpr std::size_t kY = 3;
  double total = 0.0;
  constexpr int kInstances = 200;
  for (int i = 0; i < kInstances; ++i) {
    auto s = make(10, kY, 100 + static_cast<std::uint64_t>(i));
    s.place(iota_entries(100));
    total += static_cast<double>(s.storage_cost());
  }
  const double expected = 100.0 * 10.0 * (1.0 - std::pow(0.9, kY));
  EXPECT_NEAR(total / kInstances, expected, expected * 0.02);
}

TEST(Hash, PerServerLoadIsUnbalanced) {
  // §3.5: no per-server guarantee — unlike Round-Robin, imbalance grows
  // with h. Just assert it is visible at the paper's scale.
  auto s = make(10, 2);
  s.place(iota_entries(100));
  EXPECT_GT(metrics::storage_imbalance(s.placement()), 2u);
}

TEST(Hash, LookupMergesAcrossServers) {
  auto s = make(10, 2);
  s.place(iota_entries(100));
  const auto r = s.partial_lookup(35);
  EXPECT_TRUE(r.satisfied);
  EXPECT_GE(r.entries.size(), 35u);
  std::set<Entry> unique(r.entries.begin(), r.entries.end());
  EXPECT_EQ(unique.size(), r.entries.size());
}

TEST(Hash, LookupCostCanExceedOneEvenForSmallT) {
  // Fig 4: some servers hold fewer than t entries, so the mean cost is
  // strictly above 1 even at t = 15 with ~19 expected entries per server.
  // A single instance may happen to have every server above 15; aggregate
  // over instances.
  std::size_t extra = 0;
  for (int inst = 0; inst < 10; ++inst) {
    auto s = make(10, 2, 300 + static_cast<std::uint64_t>(inst));
    s.place(iota_entries(100));
    for (int i = 0; i < 100; ++i) {
      const auto r = s.partial_lookup(15);
      EXPECT_TRUE(r.satisfied);
      extra += (r.servers_contacted > 1);
    }
  }
  EXPECT_GT(extra, 0u);
}

TEST(Hash, AddTouchesOnlyHashTargets) {
  auto s = make(10, 3);
  s.place(iota_entries(10));
  const Entry v = 999;
  const auto targets = targets_of(s, v);
  s.network().reset_stats();
  s.add(v);
  // 1 client request + one store per distinct target — no broadcast (§5.5).
  EXPECT_EQ(s.network().stats().processed, 1u + targets.size());
  EXPECT_EQ(s.network().stats().broadcasts, 0u);
  for (ServerId t : targets) {
    const auto& server =
        s.server_state(t);
    EXPECT_TRUE(server.store().contains(v));
  }
}

TEST(Hash, DeleteTouchesOnlyHashTargets) {
  auto s = make(10, 3);
  s.place(iota_entries(10));
  const auto targets = targets_of(s, 5);
  s.network().reset_stats();
  s.erase(5);
  EXPECT_EQ(s.network().stats().processed, 1u + targets.size());
  EXPECT_EQ(metrics::max_coverage(s.placement()), 9u);
}

TEST(Hash, UpdateCostIsIndependentOfSystemSize) {
  // The §6.4 advantage: cost per update is ~1+y regardless of h or n.
  for (std::size_t h : {20u, 200u}) {
    auto s = make(10, 2);
    s.place(iota_entries(h));
    s.network().reset_stats();
    for (Entry v = 1000; v < 1050; ++v) s.add(v);
    const double per_update =
        static_cast<double>(s.network().stats().processed) / 50.0;
    EXPECT_LE(per_update, 3.0) << "h=" << h;
    EXPECT_GE(per_update, 2.5) << "h=" << h;  // 1 + E[distinct targets]
  }
}

TEST(Hash, AddThenDeleteRoundTrips) {
  auto s = make(6, 2);
  s.place(iota_entries(20));
  const std::size_t before = s.storage_cost();
  s.add(500);
  s.erase(500);
  EXPECT_EQ(s.storage_cost(), before);
  EXPECT_EQ(metrics::max_coverage(s.placement()), 20u);
}

TEST(Hash, ChurnPreservesExactTargetPlacement) {
  // Property: after arbitrary churn, every live entry sits exactly on its
  // hash targets — Hash-y needs no repair protocol.
  auto s = make(8, 2, 55);
  s.place(iota_entries(30));
  std::set<Entry> live;
  for (Entry v = 1; v <= 30; ++v) live.insert(v);
  Rng rng(77);
  Entry next = 100;
  for (int i = 0; i < 300; ++i) {
    if (live.empty() || rng.bernoulli(0.55)) {
      s.add(next);
      live.insert(next++);
    } else {
      auto it = live.begin();
      std::advance(it,
                   static_cast<std::ptrdiff_t>(rng.uniform(live.size())));
      s.erase(*it);
      live.erase(it);
    }
  }
  const auto p = s.placement();
  std::set<Entry> stored;
  for (ServerId id = 0; id < 8; ++id) {
    for (Entry v : p.servers[id]) {
      stored.insert(v);
      const auto targets = targets_of(s, v);
      EXPECT_NE(std::find(targets.begin(), targets.end(), id), targets.end())
          << "entry " << v << " on non-target server " << id;
    }
  }
  EXPECT_EQ(stored, live);
}

TEST(Hash, BudgetedPlacementUsesFirstFunctions) {
  // Budget 40 on h=100 with y=1: entries 1..40 stored once, rest dropped.
  auto s = make(10, 1, 1, /*budget=*/40);
  s.place(iota_entries(100));
  EXPECT_EQ(s.storage_cost(), 40u);
  EXPECT_EQ(metrics::max_coverage(s.placement()), 40u);
  EXPECT_THROW(s.add(101), std::logic_error);
}

TEST(Hash, BudgetBeyondFamilyCapacityThrows) {
  auto s = make(10, 1, 1, /*budget=*/150);  // needs 2 copies for some entries
  EXPECT_THROW(s.place(iota_entries(100)), std::logic_error);
}

TEST(Hash, LookupSkipsFailedServers) {
  auto s = make(10, 2);
  s.place(iota_entries(100));
  s.fail_server(0);
  s.fail_server(5);
  for (int i = 0; i < 20; ++i) {
    // y=2 copies: losing 2 of 10 servers rarely erases an entry entirely,
    // and never drops operational coverage below 35.
    EXPECT_TRUE(s.partial_lookup(35).satisfied);
  }
}

TEST(Hash, RejectsZeroY) { EXPECT_THROW(make(4, 0), std::logic_error); }

}  // namespace
}  // namespace pls::core
