// Tests for the Fig 12 satisfiability probe.
#include <algorithm>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "pls/core/strategy_factory.hpp"
#include "pls/metrics/availability.hpp"

namespace pls::metrics {
namespace {

std::vector<Entry> iota_entries(std::size_t h) {
  std::vector<Entry> out(h);
  for (std::size_t i = 0; i < h; ++i) out[i] = i + 1;
  return out;
}

std::unique_ptr<core::Strategy> make(core::StrategyKind kind,
                                     std::size_t param, std::size_t n = 5) {
  return core::make_strategy(
      core::StrategyConfig{.kind = kind, .param = param, .seed = 9}, n);
}

TEST(Availability, TrivialForTZero) {
  const auto s = make(core::StrategyKind::kFixed, 3);
  EXPECT_TRUE(lookup_satisfiable(*s, 0));
}

TEST(Availability, FixedSatisfiableIffServerHasT) {
  const auto s = make(core::StrategyKind::kFixed, 4);
  s->place(iota_entries(10));
  EXPECT_TRUE(lookup_satisfiable(*s, 4));
  EXPECT_FALSE(lookup_satisfiable(*s, 5));  // single-server semantics
  s->erase(1);
  EXPECT_FALSE(lookup_satisfiable(*s, 4));
  EXPECT_TRUE(lookup_satisfiable(*s, 3));
}

TEST(Availability, MultiServerSchemesUseCoverage) {
  const auto s = make(core::StrategyKind::kRoundRobin, 1);
  s->place(iota_entries(10));
  // Each server holds 2 entries, but clients merge: t up to 10 works.
  EXPECT_TRUE(lookup_satisfiable(*s, 10));
  EXPECT_FALSE(lookup_satisfiable(*s, 11));
}

TEST(Availability, FailuresShrinkCoverage) {
  const auto s = make(core::StrategyKind::kRoundRobin, 1);
  s->place(iota_entries(10));
  s->fail_server(0);  // loses 2 entries (single-copy layout)
  EXPECT_TRUE(lookup_satisfiable(*s, 8));
  EXPECT_FALSE(lookup_satisfiable(*s, 9));
  s->recover_server(0);
  EXPECT_TRUE(lookup_satisfiable(*s, 10));
}

TEST(Availability, FullReplicationNeedsOneUpServer) {
  const auto s = make(core::StrategyKind::kFullReplication, 0);
  s->place(iota_entries(6));
  for (ServerId id = 0; id < 4; ++id) s->fail_server(id);
  EXPECT_TRUE(lookup_satisfiable(*s, 6));
  s->fail_server(4);
  EXPECT_FALSE(lookup_satisfiable(*s, 1));
}

TEST(Availability, RandomServerCountsDistinctAcrossServers) {
  const auto s = make(core::StrategyKind::kRandomServer, 3, 4);
  s->place(iota_entries(12));
  // 4 servers * 3 entries with overlap: satisfiable up to the measured
  // coverage, not per-server size.
  const auto coverage = s->placement().distinct_entries();
  EXPECT_TRUE(lookup_satisfiable(*s, coverage));
  EXPECT_FALSE(lookup_satisfiable(*s, coverage + 1));
}

TEST(Availability, HashSatisfiabilityTracksPlacement) {
  const auto s = make(core::StrategyKind::kHash, 2, 6);
  s->place(iota_entries(20));
  EXPECT_TRUE(lookup_satisfiable(*s, 20));
  s->erase(3);
  EXPECT_FALSE(lookup_satisfiable(*s, 20));
  EXPECT_TRUE(lookup_satisfiable(*s, 19));
}

/// The probe computed from a Placement copy, deduplicating operational
/// coverage in a hash set: the definition the in-place probe must keep.
bool reference_satisfiable(const core::Strategy& strategy, std::size_t t) {
  if (t == 0) return true;
  const auto placement = strategy.placement();
  const auto& failures = strategy.network().failures();
  const bool single_server =
      strategy.kind() == core::StrategyKind::kFullReplication ||
      strategy.kind() == core::StrategyKind::kFixed;
  std::unordered_set<Entry> seen;
  for (std::size_t s = 0; s < placement.num_servers(); ++s) {
    if (!failures.is_up(static_cast<ServerId>(s))) continue;
    if (single_server) return placement.servers[s].size() >= t;
    seen.insert(placement.servers[s].begin(), placement.servers[s].end());
    if (seen.size() >= t) return true;
  }
  return false;
}

TEST(Availability, InPlaceProbeMatchesThePlacementCopyUnderChurn) {
  // Seeded adds, deletes, failures and recoveries, with one graceful leave
  // and one join, on every family at two cluster sizes. After every step
  // the probe must agree with the reference for every t up to one past the
  // live entry count, past the probe's 32-entry inline set included.
  const std::pair<core::StrategyKind, std::size_t> families[] = {
      {core::StrategyKind::kFullReplication, 0},
      {core::StrategyKind::kFixed, 36},
      {core::StrategyKind::kRandomServer, 12},
      {core::StrategyKind::kRoundRobin, 2},
      {core::StrategyKind::kHash, 2},
      {core::StrategyKind::kMultiProbe, 2}};
  constexpr std::size_t kSteps = 120;
  constexpr std::size_t kLeaveStep = 40;
  constexpr std::size_t kJoinStep = 80;
  for (const std::size_t n : {std::size_t{4}, std::size_t{10}}) {
    for (const auto& [kind, param] : families) {
      const auto s = make(kind, param, n);
      std::vector<Entry> live = iota_entries(40);
      s->place(live);
      Entry next = live.size() + 1;
      Rng rng(1000 * n + static_cast<std::uint64_t>(kind));
      std::size_t max_t = 0;
      for (std::size_t step = 0; step <= kSteps; ++step) {
        const auto& failures = s->network().failures();
        if (step == kLeaveStep) {
          s->remove_server(1, net::Loss::kGraceful);
        } else if (step == kJoinStep) {
          s->add_server();
        } else if (step > 0) {
          switch (rng.uniform(4)) {
            case 0:
              s->add(next);
              live.push_back(next++);
              break;
            case 1:
              if (!live.empty()) {
                const std::size_t i = rng.uniform(live.size());
                s->erase(live[i]);
                live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
              }
              break;
            case 2:
              if (failures.up_count() > 0) {
                const auto up = failures.up();
                s->fail_server(up[rng.uniform(up.size())]);
              }
              break;
            default: {
              const auto down = failures.down_servers();
              if (!down.empty()) {
                s->recover_server(down[rng.uniform(down.size())]);
              }
              break;
            }
          }
        }
        for (std::size_t t = 0; t <= live.size() + 1; ++t) {
          ASSERT_EQ(lookup_satisfiable(*s, t), reference_satisfiable(*s, t))
              << core::to_string(kind) << " n=" << n << " step " << step
              << " t=" << t;
          max_t = std::max(max_t, t);
        }
      }
      EXPECT_GT(max_t, 32u) << core::to_string(kind) << " n=" << n;
    }
  }
}

TEST(Availability, ProbeSendsNoMessages) {
  const auto s = make(core::StrategyKind::kFixed, 3);
  s->place(iota_entries(5));
  s->network().reset_stats();
  (void)lookup_satisfiable(*s, 3);
  EXPECT_EQ(s->network().stats().sent, 0u);
  EXPECT_EQ(s->network().stats().processed, 0u);
}

}  // namespace
}  // namespace pls::metrics
