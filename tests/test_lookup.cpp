// Unit tests for the client-side lookup policies, on hand-built placements.
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "pls/core/lookup.hpp"
#include "pls/core/strategy.hpp"

namespace pls::core {
namespace {

/// Builds a network whose server i hosts a default-key tenant storing
/// contents[i].
struct LookupFixture {
  explicit LookupFixture(std::vector<std::vector<Entry>> contents)
      : failures(net::make_failure_state(contents.size())), net(failures) {
    Rng master(99);
    for (std::size_t i = 0; i < contents.size(); ++i) {
      auto host = std::make_unique<net::HostServer>(static_cast<ServerId>(i));
      auto tenant = std::make_unique<StrategyServer>(
          static_cast<ServerId>(i), master.fork(i));
      tenant->store().assign(contents[i]);
      servers.push_back(tenant.get());
      host->add_tenant(kDefaultKey, std::move(tenant));
      net.add_server(std::move(host));
    }
  }

  net::ClusterView view() { return net::ClusterView(net, kDefaultKey); }
  const net::RetryPolicy& policy() const { return net.retry_policy(); }

  std::shared_ptr<net::FailureState> failures;
  net::Network net;
  std::vector<StrategyServer*> servers;
  Rng rng{7};
};

TEST(SingleServerLookup, ReturnsUpToTEntries) {
  LookupFixture f({{1, 2, 3, 4}, {1, 2, 3, 4}});
  const auto r = single_server_lookup(f.view(), f.rng, 2, f.policy());
  EXPECT_TRUE(r.satisfied);
  EXPECT_EQ(r.entries.size(), 2u);
  EXPECT_EQ(r.servers_contacted, 1u);
}

TEST(SingleServerLookup, UnsatisfiedWhenServerTooSmall) {
  LookupFixture f({{1}, {1}});
  const auto r = single_server_lookup(f.view(), f.rng, 3, f.policy());
  EXPECT_FALSE(r.satisfied);
  EXPECT_EQ(r.entries.size(), 1u);
  EXPECT_EQ(r.servers_contacted, 1u);  // never contacts a second server
}

TEST(SingleServerLookup, SkipsFailedServers) {
  LookupFixture f({{1, 2}, {3, 4}});
  f.net.fail(0);
  for (int i = 0; i < 20; ++i) {
    const auto r = single_server_lookup(f.view(), f.rng, 2, f.policy());
    EXPECT_TRUE(r.satisfied);
    for (Entry v : r.entries) EXPECT_TRUE(v == 3 || v == 4);
  }
}

TEST(SingleServerLookup, AllServersDownYieldsEmptyResult) {
  LookupFixture f({{1}, {2}});
  f.net.fail(0);
  f.net.fail(1);
  const auto r = single_server_lookup(f.view(), f.rng, 1, f.policy());
  EXPECT_FALSE(r.satisfied);
  EXPECT_EQ(r.servers_contacted, 0u);
  EXPECT_TRUE(r.entries.empty());
}

TEST(RandomOrderLookup, MergesDistinctAcrossServers) {
  LookupFixture f({{1, 2}, {3, 4}, {5, 6}});
  const auto r = random_order_lookup(f.view(), f.rng, 5, f.policy());
  EXPECT_TRUE(r.satisfied);
  EXPECT_GE(r.entries.size(), 5u);
  std::set<Entry> unique(r.entries.begin(), r.entries.end());
  EXPECT_EQ(unique.size(), r.entries.size());
  EXPECT_EQ(r.servers_contacted, 3u);
}

TEST(RandomOrderLookup, StopsAsSoonAsSatisfied) {
  LookupFixture f({{1, 2, 3}, {1, 2, 3}, {1, 2, 3}});
  const auto r = random_order_lookup(f.view(), f.rng, 3, f.policy());
  EXPECT_TRUE(r.satisfied);
  EXPECT_EQ(r.servers_contacted, 1u);
}

TEST(RandomOrderLookup, OverlapForcesExtraContacts) {
  // Identical servers: a second contact adds nothing, so asking for more
  // than any one server holds exhausts all servers unsatisfied.
  LookupFixture f({{1, 2}, {1, 2}});
  const auto r = random_order_lookup(f.view(), f.rng, 3, f.policy());
  EXPECT_FALSE(r.satisfied);
  EXPECT_EQ(r.entries.size(), 2u);
  EXPECT_EQ(r.servers_contacted, 2u);
}

TEST(RandomOrderLookup, IgnoresFailedServers) {
  LookupFixture f({{1, 2}, {3, 4}});
  f.net.fail(1);
  const auto r = random_order_lookup(f.view(), f.rng, 4, f.policy());
  EXPECT_FALSE(r.satisfied);
  EXPECT_EQ(r.servers_contacted, 1u);
  for (Entry v : r.entries) EXPECT_TRUE(v == 1 || v == 2);
}

TEST(StrideOrderLookup, DisjointStrideContactsMinimalServers) {
  // Round-Robin-2 layout on 4 servers, 8 entries: server s holds slots
  // with s in {slot, slot+1} — stride-2 contacts are disjoint.
  LookupFixture f({{0, 1, 6, 7}, {0, 1, 2, 3}, {2, 3, 4, 5}, {4, 5, 6, 7}});
  for (int i = 0; i < 20; ++i) {
    const auto r = stride_order_lookup(f.view(), f.rng, 8, 2, f.policy());
    EXPECT_TRUE(r.satisfied);
    EXPECT_EQ(r.servers_contacted, 2u);
    EXPECT_EQ(r.entries.size(), 8u);
  }
}

TEST(StrideOrderLookup, SatisfiedByFirstServerWhenEnough) {
  LookupFixture f({{1, 2, 3}, {4, 5, 6}});
  const auto r = stride_order_lookup(f.view(), f.rng, 2, 1, f.policy());
  EXPECT_TRUE(r.satisfied);
  EXPECT_EQ(r.servers_contacted, 1u);
}

TEST(StrideOrderLookup, FallsBackToRandomOnFailure) {
  LookupFixture f({{1, 2}, {3, 4}, {5, 6}, {7, 8}});
  f.net.fail(2);
  for (int i = 0; i < 20; ++i) {
    const auto r = stride_order_lookup(f.view(), f.rng, 6, 2, f.policy());
    EXPECT_TRUE(r.satisfied);  // remaining 3 servers still hold 6 entries
    EXPECT_EQ(r.servers_contacted, 3u);
  }
}

TEST(StrideOrderLookup, ExhaustsAllServersWhenUnsatisfiable) {
  LookupFixture f({{1}, {1}, {1}});
  const auto r = stride_order_lookup(f.view(), f.rng, 2, 1, f.policy());
  EXPECT_FALSE(r.satisfied);
  EXPECT_EQ(r.servers_contacted, 3u);
  EXPECT_EQ(r.entries.size(), 1u);
}

TEST(StrideOrderLookup, RejectsZeroStride) {
  LookupFixture f(std::vector<std::vector<Entry>>{{1}});
  EXPECT_THROW(stride_order_lookup(f.view(), f.rng, 1, 0, f.policy()),
               std::logic_error);
}

TEST(StrideOrderLookup, AllDownYieldsEmpty) {
  LookupFixture f({{1}, {2}});
  f.net.fail(0);
  f.net.fail(1);
  const auto r = stride_order_lookup(f.view(), f.rng, 1, 1, f.policy());
  EXPECT_FALSE(r.satisfied);
  EXPECT_EQ(r.servers_contacted, 0u);
}


TEST(SubsetLookup, RestrictsToCandidates) {
  LookupFixture f({{1, 2}, {3, 4}, {5, 6}});
  const std::vector<ServerId> candidates{0, 2};
  for (int i = 0; i < 20; ++i) {
    const auto r = subset_lookup(f.view(), f.rng, 4, candidates, f.policy());
    EXPECT_TRUE(r.satisfied);
    for (Entry v : r.entries) EXPECT_TRUE(v != 3 && v != 4);
  }
}

TEST(SubsetLookup, DuplicateAndDownCandidatesAreSkipped) {
  LookupFixture f({{1, 2}, {3, 4}});
  f.net.fail(1);
  const std::vector<ServerId> candidates{0, 0, 1, 0};
  const auto r = subset_lookup(f.view(), f.rng, 4, candidates, f.policy());
  EXPECT_FALSE(r.satisfied);
  EXPECT_EQ(r.servers_contacted, 1u);
  EXPECT_EQ(r.entries.size(), 2u);
}

TEST(SubsetLookup, EmptyCandidateListYieldsEmptyResult) {
  LookupFixture f(std::vector<std::vector<Entry>>{{1}});
  const auto r = subset_lookup(f.view(), f.rng, 1, {}, f.policy());
  EXPECT_FALSE(r.satisfied);
  EXPECT_EQ(r.servers_contacted, 0u);
}

TEST(SubsetLookup, RejectsOutOfRangeCandidates) {
  LookupFixture f(std::vector<std::vector<Entry>>{{1}});
  const std::vector<ServerId> candidates{5};
  EXPECT_THROW(subset_lookup(f.view(), f.rng, 1, candidates, f.policy()),
               std::logic_error);
}

TEST(ExhaustiveLookup, CollectsEverythingFromEveryUpServer) {
  LookupFixture f({{1, 2, 3}, {3, 4}, {5}});
  const auto r = exhaustive_lookup(f.view(), f.rng, f.policy());
  EXPECT_TRUE(r.satisfied);
  EXPECT_EQ(r.servers_contacted, 3u);
  std::set<Entry> got(r.entries.begin(), r.entries.end());
  EXPECT_EQ(got, (std::set<Entry>{1, 2, 3, 4, 5}));
}

TEST(ExhaustiveLookup, SkipsDownServersAndReportsEmptyCluster) {
  LookupFixture f({{1}, {2}});
  f.net.fail(0);
  auto r = exhaustive_lookup(f.view(), f.rng, f.policy());
  EXPECT_EQ(r.entries, (std::vector<Entry>{2}));
  f.net.fail(1);
  r = exhaustive_lookup(f.view(), f.rng, f.policy());
  EXPECT_FALSE(r.satisfied);
  EXPECT_TRUE(r.entries.empty());
}

TEST(LookupCostAccounting, EachContactIsOneProcessedMessage) {
  LookupFixture f({{1, 2}, {3, 4}, {5, 6}});
  f.net.reset_stats();
  const auto r = random_order_lookup(f.view(), f.rng, 6, f.policy());
  EXPECT_EQ(f.net.stats().processed, r.servers_contacted);
}

}  // namespace
}  // namespace pls::core
