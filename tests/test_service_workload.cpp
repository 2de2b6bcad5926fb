// Tests for the multi-key service mix generator, replayed through the
// SaturationEngine with its default config.
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "pls/workload/generator.hpp"
#include "pls/workload/saturation.hpp"

namespace pls::workload {
namespace {

ServiceWorkloadConfig small_config() {
  ServiceWorkloadConfig cfg;
  cfg.num_keys = 10;
  cfg.zipf_alpha = 1.0;
  cfg.entries_per_key = 12;
  cfg.lookup_interarrival = 1.0;
  cfg.update_interarrival = 5.0;
  cfg.num_events = 2000;
  cfg.target_answer_size = 3;
  cfg.seed = 7;
  return cfg;
}

core::PartialLookupService make_service(std::size_t n = 8) {
  core::ServiceConfig cfg;
  cfg.num_servers = n;
  cfg.default_strategy =
      core::StrategyConfig{.kind = core::StrategyKind::kHash, .param = 2};
  cfg.seed = 3;
  return core::PartialLookupService(cfg);
}

SaturationStats replay(core::PartialLookupService& service,
                       const ProductionWorkload& wl) {
  return SaturationEngine(service, wl, SaturationConfig{}).run();
}

double satisfaction_rate(const SaturationStats& stats) {
  return static_cast<double>(stats.satisfied) /
         static_cast<double>(stats.lookups);
}

TEST(ServiceWorkload, GeneratesRequestedShape) {
  const auto wl = generate_service_workload(small_config());
  EXPECT_EQ(wl.keys.size(), 10u);
  EXPECT_EQ(wl.initial_entries.size(), 10u);
  for (const auto& entries : wl.initial_entries) {
    EXPECT_EQ(entries.size(), 12u);
  }
  EXPECT_EQ(wl.events.size(), 2000u);
  EXPECT_TRUE(std::is_sorted(
      wl.events.begin(), wl.events.end(),
      [](const auto& a, const auto& b) { return a.time < b.time; }));
}

TEST(ServiceWorkload, EntryIdsAreGloballyUnique) {
  const auto wl = generate_service_workload(small_config());
  std::set<Entry> seen;
  for (const auto& entries : wl.initial_entries) {
    for (Entry v : entries) EXPECT_TRUE(seen.insert(v).second);
  }
  for (const auto& ev : wl.events) {
    if (ev.kind == ProdEventKind::kAdd) {
      EXPECT_TRUE(seen.insert(ev.entry).second);
    }
  }
}

TEST(ServiceWorkload, EventMixMatchesArrivalRates) {
  const auto wl = generate_service_workload(small_config());
  std::size_t lookups = 0, updates = 0;
  for (const auto& ev : wl.events) {
    (ev.kind == ProdEventKind::kLookup ? lookups : updates) += 1;
  }
  // Rates 1:5 -> lookups should be ~5x updates.
  EXPECT_NEAR(static_cast<double>(lookups) / static_cast<double>(updates),
              5.0, 0.7);
}

TEST(ServiceWorkload, LookupsFollowZipfPopularity) {
  auto cfg = small_config();
  cfg.num_events = 20000;
  const auto wl = generate_service_workload(cfg);
  std::vector<std::size_t> hits(cfg.num_keys, 0);
  std::size_t lookups = 0;
  for (const auto& ev : wl.events) {
    if (ev.kind == ProdEventKind::kLookup) {
      ++hits[ev.key];
      ++lookups;
    }
  }
  // Rank 0 should receive roughly twice the lookups of rank 1.
  EXPECT_GT(hits[0], hits[1]);
  EXPECT_NEAR(static_cast<double>(hits[0]) / static_cast<double>(hits[1]),
              2.0, 0.4);
  EXPECT_GT(hits[0], hits[9] * 5);
}

TEST(ServiceWorkload, KeyIndicesAreInRange) {
  const auto wl = generate_service_workload(small_config());
  for (const auto& ev : wl.events) EXPECT_LT(ev.key, 10u);
}

TEST(ServiceWorkload, DeterministicPerSeed) {
  const auto a = generate_service_workload(small_config());
  const auto b = generate_service_workload(small_config());
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].time, b.events[i].time);
    EXPECT_EQ(a.events[i].key, b.events[i].key);
    EXPECT_EQ(a.events[i].entry, b.events[i].entry);
  }
}

TEST(ServiceWorkload, RejectsDegenerateConfigs) {
  auto cfg = small_config();
  cfg.num_keys = 0;
  EXPECT_THROW(generate_service_workload(cfg), std::logic_error);
  cfg = small_config();
  cfg.entries_per_key = 0;
  EXPECT_THROW(generate_service_workload(cfg), std::logic_error);
  cfg = small_config();
  cfg.lookup_interarrival = 0.0;
  EXPECT_THROW(generate_service_workload(cfg), std::logic_error);
}

TEST(ServiceWorkload, DeletesNameALiveEntryOfTheirKey) {
  auto cfg = small_config();
  cfg.update_interarrival = 1.0;
  const auto wl = generate_service_workload(cfg);
  std::vector<std::set<Entry>> live;
  for (const auto& entries : wl.initial_entries) {
    live.emplace_back(entries.begin(), entries.end());
  }
  std::size_t deletes = 0;
  for (const auto& ev : wl.events) {
    if (ev.kind == ProdEventKind::kAdd) live[ev.key].insert(ev.entry);
    if (ev.kind == ProdEventKind::kDelete) {
      EXPECT_EQ(live[ev.key].erase(ev.entry), 1u);
      ++deletes;
    }
  }
  EXPECT_GT(deletes, 0u);
}

TEST(ServiceReplay, CountsEveryEventAndSatisfiesLookups) {
  const auto wl = generate_service_workload(small_config());
  auto service = make_service();
  const auto stats = replay(service, wl);
  EXPECT_EQ(stats.lookups + stats.adds + stats.deletes, wl.events.size());
  EXPECT_GT(stats.lookups, 0u);
  // Hash-2 with ~12 live entries per key: t = 3 almost always satisfiable.
  EXPECT_GT(satisfaction_rate(stats), 0.95);
  EXPECT_GE(stats.total_servers_contacted /
                static_cast<double>(stats.lookups),
            1.0);
  EXPECT_GT(service.total_transport().processed, 0u);
}

TEST(ServiceReplay, MessageCountExcludesPlacement) {
  auto cfg = small_config();
  cfg.num_events = 10;  // almost no traffic after placement
  const auto wl = generate_service_workload(cfg);
  auto service = make_service();
  replay(service, wl);
  // 10 events cannot cost anywhere near the 120-entry placement traffic.
  EXPECT_LT(service.total_transport().processed, 100u);
}

TEST(ServiceReplay, SatisfactionDegradesGracefullyUnderFailures) {
  const auto wl = generate_service_workload(small_config());
  auto healthy = make_service();
  auto degraded = make_service();
  degraded.fail_server(0);
  degraded.fail_server(1);
  degraded.fail_server(2);
  const auto a = replay(healthy, wl);
  const auto b = replay(degraded, wl);
  EXPECT_GE(satisfaction_rate(a), satisfaction_rate(b));
  EXPECT_GT(satisfaction_rate(b), 0.5);  // y=2 copies keep most keys alive
}

// Taken from the replay loop that drew each delete's victim at replay time:
// resolving victims at generation must not move a single draw.
TEST(ServiceReplay, MatchesTheParentReplay) {
  {
    const auto wl = generate_service_workload(small_config());
    auto service = make_service();
    const auto stats = replay(service, wl);
    EXPECT_EQ(stats.lookups, 1673u);
    EXPECT_EQ(stats.satisfied, 1619u);
    EXPECT_EQ(stats.adds, 145u);
    EXPECT_EQ(stats.deletes, 182u);
    EXPECT_EQ(service.total_transport().processed, 4296u);
    EXPECT_EQ(stats.total_servers_contacted /
                  static_cast<double>(stats.lookups),
              2.0029886431560073);
    EXPECT_EQ(service.total_storage(), 154u);
  }
  {
    // Tiny keys under heavy churn: many deletes find their key empty.
    ServiceWorkloadConfig cfg;
    cfg.num_keys = 6;
    cfg.entries_per_key = 2;
    cfg.lookup_interarrival = 1.0;
    cfg.update_interarrival = 1.0;
    cfg.num_events = 3000;
    cfg.target_answer_size = 2;
    cfg.seed = 11;
    const auto wl = generate_service_workload(cfg);
    EXPECT_EQ(wl.events.size(), 2903u);
    core::ServiceConfig scfg;
    scfg.num_servers = 7;
    scfg.default_strategy = core::StrategyConfig{
        .kind = core::StrategyKind::kRoundRobin, .param = 2};
    scfg.seed = 5;
    core::PartialLookupService service(scfg);
    const auto stats = replay(service, wl);
    EXPECT_EQ(stats.lookups, 1509u);
    EXPECT_EQ(stats.satisfied, 1017u);
    EXPECT_EQ(stats.adds, 715u);
    EXPECT_EQ(stats.deletes, 679u);
    EXPECT_EQ(service.total_transport().processed, 15256u);
    EXPECT_EQ(stats.total_servers_contacted /
                  static_cast<double>(stats.lookups),
              3.3353214049039099);
    EXPECT_EQ(service.total_storage(), 96u);
  }
}

}  // namespace
}  // namespace pls::workload
