// Elastic membership: joins, graceful leaves, permanent losses and the
// strategy-specific migration each one triggers — for all five strategies
// and for the multi-key service facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "pls/core/service.hpp"
#include "pls/core/strategy_factory.hpp"
#include "pls/metrics/availability.hpp"
#include "pls/metrics/durability.hpp"
#include "pls/net/repair.hpp"
#include "pls/runtime/sharded_runtime.hpp"

namespace pls::core {
namespace {

struct Scheme {
  StrategyKind kind;
  std::size_t param;
};

// Params chosen so every strategy replicates each entry at least twice on
// a 5-server cluster: membership events must then never lose data.
const Scheme kSchemes[] = {
    {StrategyKind::kFullReplication, 1},
    {StrategyKind::kFixed, 8},
    {StrategyKind::kRandomServer, 8},
    {StrategyKind::kRoundRobin, 2},
    {StrategyKind::kHash, 2},
    {StrategyKind::kMultiProbe, 2},
};

std::vector<Entry> iota_entries(std::size_t h) {
  std::vector<Entry> out(h);
  for (std::size_t i = 0; i < h; ++i) out[i] = i + 1;
  return out;
}

std::unique_ptr<Strategy> make(const Scheme& scheme, std::size_t n,
                               std::uint64_t seed = 3) {
  return make_strategy(
      StrategyConfig{.kind = scheme.kind, .param = scheme.param, .seed = seed},
      n, net::make_failure_state(n));
}

// The post-place stored union: ground truth for durability checks
// (RandomServer may legitimately sample a strict subset of what place()
// was given).
std::vector<Entry> stored_union(const Strategy& s) {
  std::vector<Entry> u;
  for (const auto& server : s.placement().servers) {
    u.insert(u.end(), server.begin(), server.end());
  }
  std::sort(u.begin(), u.end());
  u.erase(std::unique(u.begin(), u.end()), u.end());
  return u;
}

std::size_t copies_of(const Strategy& s, Entry v) {
  std::size_t copies = 0;
  for (std::size_t i = 0; i < s.num_servers(); ++i) {
    copies += s.server_state(static_cast<ServerId>(i)).store().contains(v);
  }
  return copies;
}

TEST(Membership, JoinGrowsTheClusterAndKeepsLookupsServed) {
  for (const auto& scheme : kSchemes) {
    auto s = make(scheme, 4);
    s->place(iota_entries(24));
    const auto reference = stored_union(*s);

    const ServerId joined = s->add_server();
    EXPECT_EQ(joined, 4u) << s->name();
    EXPECT_EQ(s->num_servers(), 5u) << s->name();
    EXPECT_EQ(s->network().failures().member_count(), 5u) << s->name();
    EXPECT_TRUE(s->network().failures().is_up(joined)) << s->name();

    // Joining never loses anything and lookups keep working.
    const auto report = metrics::measure_durability(*s, reference);
    EXPECT_EQ(report.lost_entries, 0u) << s->name();
    EXPECT_TRUE(s->partial_lookup(4).satisfied) << s->name();

    // Post-join updates work end to end, including through the new host.
    // (Fixed-x is exempt: its store is the fixed x-subset, already full,
    // so declining the new entry is correct behaviour.)
    if (scheme.kind != StrategyKind::kFixed) {
      s->add(Entry{1000});
      EXPECT_GT(copies_of(*s, Entry{1000}), 0u) << s->name();
    }
  }
}

TEST(Membership, JoinMigratesDataOntoMirrorStrategies) {
  // FullReplication mirrors the whole union onto the newcomer; Fixed-x
  // mirrors its fixed x-entry subset.
  {
    auto s = make(kSchemes[0], 4);
    s->place(iota_entries(24));
    EXPECT_EQ(s->server_state(s->add_server()).store().size(), 24u);
  }
  {
    auto s = make(kSchemes[1], 4);
    s->place(iota_entries(24));
    EXPECT_EQ(s->server_state(s->add_server()).store().size(),
              kSchemes[1].param);
  }
}

TEST(Membership, GracefulLeaveMigratesBeforeWiping) {
  for (const auto& scheme : kSchemes) {
    auto s = make(scheme, 5);
    s->place(iota_entries(24));
    const auto reference = stored_union(*s);

    s->remove_server(4, net::Loss::kGraceful);
    EXPECT_EQ(s->network().failures().member_count(), 4u) << s->name();
    EXPECT_EQ(s->network().failures().state(4), net::ServerState::kGone)
        << s->name();
    // Ids are never reused: the tombstone keeps its slot, empty.
    EXPECT_EQ(s->num_servers(), 5u) << s->name();
    EXPECT_EQ(s->server_state(4).store().size(), 0u) << s->name();

    // Planned scale-in loses nothing: listeners migrate off the leaver
    // while its data is still readable.
    const auto report = metrics::measure_durability(*s, reference);
    EXPECT_EQ(report.lost_entries, 0u) << s->name();
    EXPECT_TRUE(s->partial_lookup(4).satisfied) << s->name();
  }
}

TEST(Membership, PermanentLossLosesOnlySoleCopies) {
  for (const auto& scheme : kSchemes) {
    auto s = make(scheme, 5);
    s->place(iota_entries(24));
    const auto reference = stored_union(*s);

    // Entries with a copy on a survivor must outlive the dead machine.
    const ServerId victim = 4;
    std::vector<Entry> safe;
    for (Entry v : reference) {
      const bool on_victim = s->server_state(victim).store().contains(v);
      if (copies_of(*s, v) > (on_victim ? 1u : 0u)) safe.push_back(v);
    }

    s->remove_server(victim, net::Loss::kPermanent);
    const auto report = metrics::measure_durability(*s, safe);
    EXPECT_EQ(report.lost_entries, 0u) << s->name();
  }
}

TEST(Membership, SequencesOfJoinsAndLeavesStayConsistent) {
  for (const auto& scheme : kSchemes) {
    auto s = make(scheme, 4);
    s->place(iota_entries(24));
    const auto reference = stored_union(*s);

    s->add_server();                               // members {0..4}
    s->remove_server(1, net::Loss::kGraceful);     // members {0,2,3,4}
    s->add_server();                               // members {0,2,3,4,5}
    s->remove_server(0, net::Loss::kGraceful);     // members {2,3,4,5}

    const auto& fs = s->network().failures();
    EXPECT_EQ(fs.member_count(), 4u) << s->name();
    EXPECT_EQ(fs.member_at(0), 2u) << s->name();
    EXPECT_EQ(fs.member_at(3), 5u) << s->name();

    const auto report = metrics::measure_durability(*s, reference);
    EXPECT_EQ(report.lost_entries, 0u) << s->name();
    EXPECT_TRUE(s->partial_lookup(4).satisfied) << s->name();
    if (scheme.kind != StrategyKind::kFixed) {
      s->add(Entry{2000});
      EXPECT_GT(copies_of(*s, Entry{2000}), 0u) << s->name();
    }
  }
}

// Reference entries that still have a copy off `victim`: what repair can
// provably restore after `victim`'s data is destroyed. (RandomServer and
// Hash-y can hold an entry's sole copy on one server; destroying that is
// real loss, which only the durability *race* tests — repair beating the
// next wipe — can prevent.)
std::vector<Entry> surviving_elsewhere(const Strategy& s,
                                       std::span<const Entry> reference,
                                       ServerId victim) {
  std::vector<Entry> safe;
  for (Entry v : reference) {
    const bool on_victim = s.server_state(victim).store().contains(v);
    if (copies_of(s, v) > (on_victim ? 1u : 0u)) safe.push_back(v);
  }
  return safe;
}

TEST(Membership, RepairOnceRestoresAWipedServer) {
  // One wiped host, no simulator: a single repair pass must restore the
  // strategy's redundancy rule from the surviving copies.
  for (const auto& scheme : kSchemes) {
    auto s = make(scheme, 5);
    s->place(iota_entries(24));
    const auto reference = stored_union(*s);
    const auto safe = surviving_elsewhere(*s, reference, 2);

    s->wipe_server(2);
    const auto outcome = s->repair_once();
    EXPECT_GT(outcome.replicas_created, 0u) << s->name();
    EXPECT_EQ(outcome.deficit_after, 0u) << s->name();

    const auto report = metrics::measure_durability(*s, safe);
    EXPECT_EQ(report.lost_entries, 0u) << s->name();
    // Redundancy is back: every restorable entry has >= 2 copies again.
    EXPECT_GE(report.min_copies, 2u) << s->name();

    // Repair traffic lands on the repair ledger, not the client channels,
    // and obeys the same conservation law.
    const auto& repair_stats = s->network().repair_stats();
    EXPECT_GT(repair_stats.sent, 0u) << s->name();
    EXPECT_TRUE(repair_stats.conservation_holds()) << s->name();
  }
}

TEST(Membership, RepairSkipsDownServersAndRetriesAfterRecovery) {
  for (const auto& scheme : kSchemes) {
    auto s = make(scheme, 5);
    s->place(iota_entries(24));
    const auto reference = stored_union(*s);
    const auto safe = surviving_elsewhere(*s, reference, 2);

    s->wipe_server(2);
    s->fail_server(2);
    const auto while_down = s->repair_once();
    EXPECT_GT(while_down.deficit_after, 0u) << s->name();

    s->recover_server(2);
    const auto after = s->repair_once();
    EXPECT_EQ(after.deficit_after, 0u) << s->name();
    const auto report = metrics::measure_durability(*s, safe);
    EXPECT_EQ(report.lost_entries, 0u) << s->name();
  }
}

TEST(Membership, ServiceWideJoinAndLeaveReachEveryKey) {
  ServiceConfig config;
  config.num_servers = 4;
  config.default_strategy =
      StrategyConfig{.kind = StrategyKind::kRoundRobin, .param = 2};
  config.seed = 5;
  PartialLookupService service(std::move(config));
  const auto entries = iota_entries(16);
  service.place("alpha", entries);
  service.place("beta", entries);

  const ServerId joined = service.add_server();
  EXPECT_EQ(joined, 4u);
  EXPECT_EQ(service.failures().member_count(), 5u);

  service.remove_server(0, net::Loss::kGraceful);
  EXPECT_EQ(service.failures().member_count(), 4u);

  for (const Key& key : {Key{"alpha"}, Key{"beta"}}) {
    EXPECT_TRUE(service.partial_lookup(key, 4).satisfied) << key;
    const auto& strategy = service.strategy(key);
    // Nothing lives on the tombstone; everything survived the migration.
    EXPECT_EQ(strategy.server_state(0).store().size(), 0u) << key;
    const auto report = metrics::measure_durability(strategy, entries);
    EXPECT_EQ(report.lost_entries, 0u) << key;
  }
}

TEST(Membership, AKeyFirstTouchedAfterAPermanentLeaveIsServedByEveryFamily) {
  // Host 4 of 5 leaves for good before key "b" exists: its strategy is
  // built over a member list whose ids no longer equal its ranks. On the
  // service and on a 2-shard runtime, every family must place, update,
  // serve and repair the new key without touching the departed host; the
  // families that take a storage budget must also re-place a budgeted key
  // that was placed before the leave.
  for (const Scheme& scheme : kSchemes) {
    SCOPED_TRACE(std::string(to_string(scheme.kind)));
    ServiceConfig config;
    config.num_servers = 5;
    config.default_strategy =
        StrategyConfig{.kind = scheme.kind, .param = scheme.param};
    config.seed = 11;
    const bool budgets = scheme.kind == StrategyKind::kRoundRobin ||
                         scheme.kind == StrategyKind::kHash ||
                         scheme.kind == StrategyKind::kMultiProbe;
    ServiceConfig budgeted = config;
    budgeted.default_strategy.storage_budget = 30;

    PartialLookupService service(config);
    service.place("a", iota_entries(20));
    service.remove_server(4, net::Loss::kPermanent);
    service.place("b", iota_entries(20));
    service.add("b", 100);
    service.erase("b", 3);
    EXPECT_TRUE(service.partial_lookup("b", 5).satisfied);
    Strategy& b = service.strategy("b");
    EXPECT_EQ(b.server_state(4).store().size(), 0u);
    const net::RepairOutcome repaired = b.repair_once();
    EXPECT_EQ(repaired.deficit_after, 0u);
    EXPECT_EQ(repaired.unrecoverable, 0u);
    if (budgets) {
      PartialLookupService static_service(budgeted);
      static_service.place("c", iota_entries(20));
      static_service.remove_server(4, net::Loss::kPermanent);
      static_service.place("c", iota_entries(20));
      const Strategy& c = static_service.strategy("c");
      EXPECT_EQ(c.server_state(4).store().size(), 0u);
      EXPECT_GT(c.storage_cost(), 0u);
      EXPECT_LE(c.storage_cost(), 30u);
    }

    sim::ShardedRuntime runtime(
        sim::ShardedRuntimeConfig{.shards = 2, .service = config});
    runtime.place("a", iota_entries(20));
    runtime.remove_server(4, net::Loss::kPermanent);
    runtime.place("b", iota_entries(20));
    runtime.add("b", 100);
    runtime.erase("b", 3);
    runtime.lookup("b", 5);
    runtime.repair_scan(1.0);
    EXPECT_EQ(runtime.key_lookup_totals("b").satisfied, 1u);
    EXPECT_TRUE(runtime.shards_consistent());
    if (budgets) {
      sim::ShardedRuntime static_runtime(
          sim::ShardedRuntimeConfig{.shards = 2, .service = budgeted});
      static_runtime.place("c", iota_entries(20));
      static_runtime.remove_server(4, net::Loss::kPermanent);
      static_runtime.place("c", iota_entries(20));
      static_runtime.lookup("c", 5);
      EXPECT_EQ(static_runtime.key_lookup_totals("c").satisfied, 1u);
    }
  }
}

}  // namespace
}  // namespace pls::core
