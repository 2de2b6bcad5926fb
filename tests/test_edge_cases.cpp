// Edge-of-the-envelope behaviour: degenerate cluster shapes and inputs
// that a robust library must handle gracefully.
#include <gtest/gtest.h>

#include "pls/core/service.hpp"
#include "pls/core/strategy_factory.hpp"
#include "pls/metrics/coverage.hpp"

namespace pls::core {
namespace {

std::vector<Entry> iota_entries(std::size_t h) {
  std::vector<Entry> out(h);
  for (std::size_t i = 0; i < h; ++i) out[i] = i + 1;
  return out;
}

class SingleServerTest
    : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(SingleServerTest, WorksOnAClusterOfOne) {
  const auto s = make_strategy(
      StrategyConfig{.kind = GetParam(), .param = 1, .seed = 1}, 1);
  s->place(iota_entries(5));
  EXPECT_GE(s->storage_cost(), 1u);
  const auto r = s->partial_lookup(1);
  EXPECT_TRUE(r.satisfied);
  EXPECT_EQ(r.servers_contacted, 1u);
  // Erase-then-add: for Fixed-x the cushion refills only on the *next*
  // add, so this order keeps every scheme lookupable.
  s->erase(1);
  s->add(50);
  EXPECT_TRUE(s->partial_lookup(1).satisfied);
  s->fail_server(0);
  EXPECT_FALSE(s->partial_lookup(1).satisfied);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SingleServerTest,
    ::testing::Values(StrategyKind::kFullReplication, StrategyKind::kFixed,
                      StrategyKind::kRandomServer, StrategyKind::kRoundRobin,
                      StrategyKind::kHash),
    [](const auto& param_info) {
      return std::string(to_string(param_info.param));
    });

class EmptyPlacementTest
    : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(EmptyPlacementTest, EmptyPlaceIsLegalAndLookupsReportUnsatisfied) {
  const auto s = make_strategy(
      StrategyConfig{.kind = GetParam(), .param = 2, .seed = 1}, 4);
  s->place(std::vector<Entry>{});
  EXPECT_EQ(s->storage_cost(), 0u);
  const auto r = s->partial_lookup(1);
  EXPECT_FALSE(r.satisfied);
  EXPECT_TRUE(r.entries.empty());
  // Growing from empty works.
  s->add(1);
  EXPECT_TRUE(s->partial_lookup(1).satisfied);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, EmptyPlacementTest,
    ::testing::Values(StrategyKind::kFullReplication, StrategyKind::kFixed,
                      StrategyKind::kRandomServer, StrategyKind::kRoundRobin,
                      StrategyKind::kHash),
    [](const auto& param_info) {
      return std::string(to_string(param_info.param));
    });

TEST(EdgeCases, TargetZeroIsTriviallySatisfied) {
  const auto s = make_strategy(
      StrategyConfig{.kind = StrategyKind::kHash, .param = 2, .seed = 1}, 4);
  s->place(iota_entries(4));
  const auto r = s->partial_lookup(0);
  EXPECT_TRUE(r.satisfied);
}

TEST(EdgeCases, SingleEntrySingleCopyEverywhere) {
  for (StrategyKind kind :
       {StrategyKind::kRoundRobin, StrategyKind::kHash}) {
    const auto s = make_strategy(
        StrategyConfig{.kind = kind, .param = 1, .seed = 2}, 8);
    s->place(std::vector<Entry>{42});
    EXPECT_EQ(s->storage_cost(), 1u);
    EXPECT_TRUE(s->partial_lookup(1).satisfied);
    s->erase(42);
    EXPECT_EQ(s->storage_cost(), 0u);
  }
}

TEST(EdgeCases, ParamLargerThanEntryCount) {
  // x >> h: every server simply keeps everything it sees.
  const auto s = make_strategy(
      StrategyConfig{.kind = StrategyKind::kRandomServer, .param = 1000,
                     .seed = 3},
      4);
  s->place(iota_entries(6));
  EXPECT_EQ(s->storage_cost(), 24u);
  EXPECT_TRUE(s->partial_lookup(6).satisfied);
}

TEST(EdgeCases, RepeatedPlaceCallsAreIdempotentPerSeedState) {
  const auto s = make_strategy(
      StrategyConfig{.kind = StrategyKind::kRoundRobin, .param = 2,
                     .seed = 4},
      5);
  for (int i = 0; i < 5; ++i) s->place(iota_entries(10));
  EXPECT_EQ(s->storage_cost(), 20u);
  EXPECT_EQ(metrics::max_coverage(s->placement()), 10u);
}

TEST(EdgeCases, AddingAnExistingEntryNeverDuplicatesStorage) {
  for (StrategyKind kind :
       {StrategyKind::kFullReplication, StrategyKind::kFixed,
        StrategyKind::kRoundRobin, StrategyKind::kHash}) {
    const auto s = make_strategy(
        StrategyConfig{.kind = kind, .param = 2, .seed = 5}, 4);
    s->place(iota_entries(2));
    const auto before = s->storage_cost();
    s->add(1);  // already present
    EXPECT_EQ(s->storage_cost(), before) << to_string(kind);
  }
}

TEST(EdgeCases, DeletingTwiceIsIdempotent) {
  for (StrategyKind kind :
       {StrategyKind::kFullReplication, StrategyKind::kFixed,
        StrategyKind::kRandomServer, StrategyKind::kRoundRobin,
        StrategyKind::kHash}) {
    const auto s = make_strategy(
        StrategyConfig{.kind = kind, .param = 2, .seed = 6}, 4);
    s->place(iota_entries(4));
    s->erase(2);
    const auto after_first = s->storage_cost();
    s->erase(2);
    EXPECT_EQ(s->storage_cost(), after_first) << to_string(kind);
  }
}

TEST(EdgeCases, ServiceWithSingleServerAndManyKeys) {
  ServiceConfig cfg;
  cfg.num_servers = 1;
  cfg.default_strategy =
      StrategyConfig{.kind = StrategyKind::kFixed, .param = 3};
  cfg.seed = 7;
  PartialLookupService svc(cfg);
  for (int k = 0; k < 20; ++k) {
    svc.place(std::string("k").append(std::to_string(k)), iota_entries(5));
  }
  EXPECT_EQ(svc.total_storage(), 20u * 3u);
  EXPECT_TRUE(svc.partial_lookup("k7", 3).satisfied);
}

TEST(EdgeCases, AllUpdatesWhileClusterFullyDownAreNoOps) {
  const auto s = make_strategy(
      StrategyConfig{.kind = StrategyKind::kHash, .param = 2, .seed = 8}, 3);
  s->place(iota_entries(4));
  for (ServerId i = 0; i < 3; ++i) s->fail_server(i);
  s->add(99);
  s->erase(1);
  s->place(iota_entries(2));  // also dropped: no reachable server
  s->recover_all();
  EXPECT_EQ(s->storage_cost(), s->placement().total_entries());
  EXPECT_EQ(metrics::max_coverage(s->placement()), 4u);  // original intact
}

}  // namespace
}  // namespace pls::core
