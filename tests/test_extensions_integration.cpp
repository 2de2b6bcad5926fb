// Cross-extension integration: the §7.1 preference lookups and §7.2
// overlay restrictions composed with the multi-key service, churn, and
// failure injection — the "everything on" scenarios a deployment hits.
#include <unordered_map>

#include <gtest/gtest.h>

#include "pls/core/preferences.hpp"
#include "pls/core/service.hpp"
#include "pls/net/failure_injector.hpp"
#include "pls/overlay/reachability.hpp"
#include "pls/workload/generator.hpp"

namespace pls {
namespace {

std::vector<Entry> iota_entries(std::size_t h) {
  std::vector<Entry> out(h);
  for (std::size_t i = 0; i < h; ++i) out[i] = i + 1;
  return out;
}

TEST(ExtensionsIntegration, PreferenceLookupOnAServiceManagedKey) {
  core::ServiceConfig cfg;
  cfg.num_servers = 8;
  cfg.default_strategy =
      core::StrategyConfig{.kind = core::StrategyKind::kRoundRobin,
                           .param = 2};
  cfg.seed = 5;
  core::PartialLookupService svc(cfg);
  svc.place("cdn", iota_entries(40));

  // Prefer low entry ids (e.g. closest mirrors).
  const core::CostFn cost = [](Entry v) { return static_cast<double>(v); };
  Rng rng(9);
  const auto best = core::preferred_lookup(
      svc.strategy("cdn"), 5, cost, core::PreferenceMode::kExhaustive, rng);
  EXPECT_EQ(best.entries, (std::vector<Entry>{1, 2, 3, 4, 5}));
  EXPECT_DOUBLE_EQ(
      core::preference_regret(best, iota_entries(40), cost, 5), 0.0);
}

TEST(ExtensionsIntegration, OverlayRestrictedClientsOnAServiceKey) {
  core::ServiceConfig cfg;
  cfg.num_servers = 10;
  cfg.default_strategy =
      core::StrategyConfig{.kind = core::StrategyKind::kHash, .param = 2};
  cfg.seed = 6;
  core::PartialLookupService svc(cfg);
  svc.place("catalog", iota_entries(60));

  Rng rng(11);
  const auto topo = overlay::Topology::ring_with_chords(60, 20, rng);
  const auto servers = overlay::evenly_spaced_servers(topo, 10);
  auto& strategy = svc.strategy("catalog");

  // Satisfaction grows with the hop limit and reaches 1 at the diameter.
  const double near = overlay::client_satisfaction(strategy, topo, servers,
                                                   1, 10);
  const double far = overlay::client_satisfaction(
      strategy, topo, servers, topo.diameter(), 10);
  EXPECT_LE(near, far);
  EXPECT_DOUBLE_EQ(far, 1.0);

  // A concrete restricted client only sees reachable content.
  const auto r = overlay::restricted_lookup(strategy, topo, servers, 30, 2,
                                            5, rng);
  EXPECT_LE(r.servers_contacted,
            servers.reachable_servers(topo, 30, 2).size());
}

TEST(ExtensionsIntegration, ChurnPlusCrashRecoveryEndToEnd) {
  // A Hash-2 service rides out a long mixed workload while an injector
  // crashes and repairs servers continuously.
  workload::ServiceWorkloadConfig wc;
  wc.num_keys = 12;
  wc.entries_per_key = 20;
  wc.num_events = 4000;
  wc.update_interarrival = 5.0;
  wc.seed = 21;
  const auto wl = workload::generate_service_workload(wc);

  core::ServiceConfig cfg;
  cfg.num_servers = 10;
  cfg.default_strategy =
      core::StrategyConfig{.kind = core::StrategyKind::kHash, .param = 2};
  cfg.seed = 21;
  core::PartialLookupService svc(cfg);

  auto failures = net::make_failure_state(10);
  net::FailureInjector injector(failures,
                                {.mttf = 400.0, .mttr = 40.0, .seed = 22});
  sim::Simulator sim;
  injector.arm(sim);

  for (std::size_t k = 0; k < wl.keys.size(); ++k) {
    svc.place(wl.keys[k], wl.initial_entries[k]);
  }

  std::size_t lookups = 0, satisfied = 0;
  for (const auto& ev : wl.events) {
    sim.run_until(ev.time);
    for (ServerId s = 0; s < 10; ++s) {
      if (failures->is_up(s)) {
        svc.recover_server(s);
      } else {
        svc.fail_server(s);
      }
    }
    if (ev.kind == workload::ProdEventKind::kLookup) {
      ++lookups;
      satisfied += svc.partial_lookup(wl.keys[ev.key], 3).satisfied;
    } else if (ev.kind == workload::ProdEventKind::kAdd) {
      svc.add(wl.keys[ev.key], ev.entry);
    } else {
      svc.erase(wl.keys[ev.key], ev.entry);
    }
  }
  ASSERT_GT(lookups, 0u);
  // ~90% per-server availability with 2 hashed copies: the vast majority
  // of t=3 lookups stay satisfiable throughout.
  EXPECT_GT(static_cast<double>(satisfied) / static_cast<double>(lookups),
            0.95);
  EXPECT_GT(injector.failures_injected(), 10u);
  svc.recover_all();
  for (const auto& key : wl.keys) {
    EXPECT_TRUE(svc.partial_lookup(key, 1).satisfied) << key;
  }
}

}  // namespace
}  // namespace pls
