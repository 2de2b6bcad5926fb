// Tests for the multi-key PartialLookupService facade.
#include <gtest/gtest.h>

#include "pls/core/service.hpp"

namespace pls::core {
namespace {

ServiceConfig base_config() {
  ServiceConfig cfg;
  cfg.num_servers = 6;
  cfg.default_strategy =
      StrategyConfig{.kind = StrategyKind::kRoundRobin, .param = 2};
  cfg.seed = 11;
  return cfg;
}

std::vector<Entry> iota_entries(std::size_t h) {
  std::vector<Entry> out(h);
  for (std::size_t i = 0; i < h; ++i) out[i] = i + 1;
  return out;
}

TEST(Service, UnknownKeyReturnsEmpty) {
  PartialLookupService svc(base_config());
  const auto r = svc.partial_lookup("missing", 3);
  EXPECT_FALSE(r.satisfied);
  EXPECT_TRUE(r.entries.empty());
  EXPECT_EQ(r.servers_contacted, 0u);  // §2: unknown key -> empty set
}

TEST(Service, PlaceThenLookupRoundTrips) {
  PartialLookupService svc(base_config());
  svc.place("song", iota_entries(12));
  const auto r = svc.partial_lookup("song", 4);
  EXPECT_TRUE(r.satisfied);
  EXPECT_GE(r.entries.size(), 4u);
  EXPECT_TRUE(svc.contains_key("song"));
  EXPECT_EQ(svc.num_keys(), 1u);
}

TEST(Service, KeysAreIndependent) {
  PartialLookupService svc(base_config());
  svc.place("a", iota_entries(5));
  svc.place("b", std::vector<Entry>{100, 200});
  const auto ra = svc.partial_lookup("a", 5);
  EXPECT_TRUE(ra.satisfied);
  for (Entry v : ra.entries) EXPECT_LE(v, 5u);
  const auto rb = svc.partial_lookup("b", 2);
  EXPECT_TRUE(rb.satisfied);
  for (Entry v : rb.entries) EXPECT_GE(v, 100u);
}

TEST(Service, AddCreatesKeyOnFirstTouch) {
  PartialLookupService svc(base_config());
  svc.add("fresh", 7);
  EXPECT_TRUE(svc.contains_key("fresh"));
  EXPECT_TRUE(svc.partial_lookup("fresh", 1).satisfied);
}

TEST(Service, EraseOnUnknownKeyIsANoOp) {
  PartialLookupService svc(base_config());
  svc.erase("ghost", 1);
  EXPECT_FALSE(svc.contains_key("ghost"));
}

TEST(Service, AddAndEraseFlowThroughToStrategy) {
  PartialLookupService svc(base_config());
  svc.place("k", iota_entries(4));
  svc.add("k", 50);
  svc.erase("k", 1);
  const auto& strategy = svc.strategy("k");
  // Round-Robin-2 with 4 live entries ({2,3,4} + 50): 8 stored copies.
  EXPECT_EQ(strategy.storage_cost(), 8u);
}

TEST(Service, PerKeyPolicyOverridesDefault) {
  auto cfg = base_config();
  cfg.strategy_policy = [](const Key& key) -> std::optional<StrategyConfig> {
    if (key.starts_with("hot:")) {
      return StrategyConfig{.kind = StrategyKind::kHash, .param = 2};
    }
    return std::nullopt;
  };
  PartialLookupService svc(cfg);
  svc.place("hot:song", iota_entries(10));
  svc.place("cold:song", iota_entries(10));
  EXPECT_EQ(svc.strategy("hot:song").kind(), StrategyKind::kHash);
  EXPECT_EQ(svc.strategy("cold:song").kind(), StrategyKind::kRoundRobin);
}

TEST(Service, RejectedKeyConfigLeavesNoTrace) {
  // Round-Robin y = 9 cannot be built on 8 servers. The rejection happens
  // before the key touches the shared cluster, so the next key still gets
  // KeyId 0 and the only link channel.
  auto cfg = base_config();
  cfg.num_servers = 8;
  cfg.strategy_policy = [](const Key& key) -> std::optional<StrategyConfig> {
    if (key != "bad") return std::nullopt;
    return StrategyConfig{.kind = StrategyKind::kRoundRobin, .param = 9};
  };
  PartialLookupService svc(cfg);
  EXPECT_THROW(svc.place("bad", iota_entries(10)), std::logic_error);
  EXPECT_FALSE(svc.contains_key("bad"));
  EXPECT_EQ(svc.cluster().num_keys(), 0u);
  svc.place("good", iota_entries(10));
  EXPECT_EQ(svc.key_id("good"), KeyId{0});
  EXPECT_EQ(svc.cluster().num_keys(), 1u);
  EXPECT_EQ(svc.cluster().network().num_channels(), 1u);
  EXPECT_TRUE(svc.partial_lookup("good", 3).satisfied);
}

TEST(Service, FailuresCorrelateAcrossKeys) {
  PartialLookupService svc(base_config());
  svc.place("a", iota_entries(6));
  svc.place("b", iota_entries(6));
  svc.fail_server(3);
  EXPECT_FALSE(svc.strategy("a").network().is_up(3));
  EXPECT_FALSE(svc.strategy("b").network().is_up(3));
  svc.recover_all();
  EXPECT_TRUE(svc.strategy("a").network().is_up(3));
}

TEST(Service, LookupsSurviveFailures) {
  PartialLookupService svc(base_config());
  svc.place("k", iota_entries(12));
  svc.fail_server(0);
  svc.fail_server(1);
  const auto r = svc.partial_lookup("k", 6);
  EXPECT_TRUE(r.satisfied);
}

TEST(Service, TotalStorageSumsKeys) {
  PartialLookupService svc(base_config());
  svc.place("a", iota_entries(5));   // RR-2: 10 copies
  svc.place("b", iota_entries(10));  // RR-2: 20 copies
  EXPECT_EQ(svc.total_storage(), 30u);
}

TEST(Service, TotalTransportAggregates) {
  PartialLookupService svc(base_config());
  svc.place("a", iota_entries(5));
  svc.place("b", iota_entries(5));
  const auto stats = svc.total_transport();
  EXPECT_GT(stats.processed, 0u);
  EXPECT_EQ(stats.per_server_processed.size(), 6u);
}

TEST(Service, StrategyAccessorThrowsOnUnknownKey) {
  PartialLookupService svc(base_config());
  EXPECT_THROW(svc.strategy("nope"), std::logic_error);
}

TEST(Service, DeterministicAcrossKeyCreationOrder) {
  // Per-key seeds derive from key content, not creation order.
  auto cfg = base_config();
  PartialLookupService svc1(cfg), svc2(cfg);
  svc1.place("x", iota_entries(8));
  svc1.place("y", iota_entries(8));
  svc2.place("y", iota_entries(8));
  svc2.place("x", iota_entries(8));
  EXPECT_EQ(svc1.strategy("x").placement().servers,
            svc2.strategy("x").placement().servers);
  EXPECT_EQ(svc1.strategy("y").placement().servers,
            svc2.strategy("y").placement().servers);
}

TEST(Service, RejectsZeroServers) {
  ServiceConfig cfg;
  cfg.num_servers = 0;
  EXPECT_THROW(PartialLookupService{cfg}, std::logic_error);
}

TEST(Service, PlaceReplacesExistingKey) {
  PartialLookupService svc(base_config());
  svc.place("k", iota_entries(10));
  svc.place("k", std::vector<Entry>{1000});
  const auto r = svc.partial_lookup("k", 1);
  EXPECT_TRUE(r.satisfied);
  EXPECT_EQ(r.entries.size(), 1u);
  EXPECT_EQ(r.entries[0], 1000u);
  EXPECT_EQ(svc.num_keys(), 1u);
}

}  // namespace
}  // namespace pls::core
