// SaturationEngine behaviour: accounting identities, transport
// conservation under partitions, request coalescing, admission-control
// shedding, determinism, and the LatencyReservoir percentile estimator.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "pls/core/service.hpp"
#include "pls/metrics/latency.hpp"
#include "pls/workload/generator.hpp"
#include "pls/workload/saturation.hpp"

namespace pls::workload {
namespace {

using core::PartialLookupService;
using core::ServiceConfig;
using core::StrategyConfig;
using core::StrategyKind;

ServiceConfig base_service(std::size_t n, StrategyKind kind,
                           std::uint32_t param) {
  ServiceConfig cfg;
  cfg.num_servers = n;
  cfg.default_strategy = StrategyConfig{.kind = kind, .param = param};
  cfg.seed = 77;
  return cfg;
}

ProductionWorkloadConfig base_workload(std::size_t n) {
  ProductionWorkloadConfig cfg;
  cfg.num_keys = 16;
  cfg.entries_per_key = 12;
  cfg.num_servers = n;
  cfg.zipf_theta = 0.99;
  cfg.offered_load = 4.0;
  cfg.read_fraction = 0.9;
  cfg.target_answer_size = 3;
  cfg.num_events = 4000;
  cfg.seed = 9;
  return cfg;
}

SaturationStats run_once(const ServiceConfig& scfg,
                         const ProductionWorkload& wl,
                         const SaturationConfig& eng) {
  PartialLookupService service(scfg);
  SaturationEngine engine(service, wl, eng);
  return engine.run();
}

// --- LatencyReservoir -----------------------------------------------------

TEST(LatencyReservoir, NearestRankPercentiles) {
  metrics::LatencyReservoir r;
  for (int i = 10; i >= 1; --i) r.add(static_cast<double>(i));
  ASSERT_EQ(r.count(), 10u);
  EXPECT_DOUBLE_EQ(r.percentile(50.0), 5.0);   // ceil(0.5*10) = rank 5
  EXPECT_DOUBLE_EQ(r.percentile(90.0), 9.0);
  EXPECT_DOUBLE_EQ(r.percentile(99.0), 10.0);  // ceil(9.9) = rank 10
  EXPECT_DOUBLE_EQ(r.percentile(0.0), 1.0);    // clamped to rank 1
  EXPECT_DOUBLE_EQ(r.percentile(100.0), 10.0);
  EXPECT_DOUBLE_EQ(r.mean(), 5.5);
  EXPECT_DOUBLE_EQ(r.max(), 10.0);
}

TEST(LatencyReservoir, MergeAndInterleavedAdds) {
  metrics::LatencyReservoir a;
  metrics::LatencyReservoir b;
  for (int i = 0; i < 50; ++i) a.add(static_cast<double>(i));
  for (int i = 50; i < 100; ++i) b.add(static_cast<double>(i));
  a.merge(b);
  ASSERT_EQ(a.count(), 100u);
  EXPECT_DOUBLE_EQ(a.percentile(99.0), 98.0);
  // Adding after a sorted read keeps the estimator correct.
  a.add(1000.0);
  EXPECT_DOUBLE_EQ(a.percentile(100.0), 1000.0);
  a.clear();
  EXPECT_TRUE(a.empty());
}

// --- accounting identities ------------------------------------------------

void check_identities(const SaturationStats& s) {
  EXPECT_EQ(s.lookups, s.executed + s.coalesced + s.rejected);
  EXPECT_EQ(s.lookups,
            s.satisfied + s.satisfied_late + s.unsatisfied + s.rejected);
  std::uint64_t per_key = 0;
  for (const auto c : s.per_key_lookups) per_key += c;
  EXPECT_EQ(per_key, s.lookups);
  EXPECT_EQ(s.latency.count(), s.executed + s.coalesced);
  EXPECT_EQ(s.fail_events, s.recover_events);
}

TEST(SaturationEngine, AccountingIdentitiesPlainRun) {
  const auto wl = generate_production_workload(base_workload(6));
  const auto stats = run_once(
      base_service(6, StrategyKind::kRoundRobin, 2), wl, SaturationConfig{});
  check_identities(stats);
  EXPECT_GT(stats.lookups, 3000u);
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GT(stats.goodput(), 0.0);
}

TEST(SaturationEngine, AccountingIdentitiesWithEverythingOn) {
  auto wcfg = base_workload(6);
  wcfg.flash_crowd = FlashCrowdConfig{80.0, 30.0, 2, 0.9};
  wcfg.failures = CorrelatedFailureConfig{120.0, 2, 15.0};
  wcfg.partitions = PartitionEventConfig{150.0, 20.0};
  wcfg.offered_load = 20.0;
  const auto wl = generate_production_workload(wcfg);

  SaturationConfig eng;
  eng.service_time = 0.05;
  eng.deadline = 2.0;
  eng.coalesce = true;
  eng.admit_backlog_limit = 1.0;
  const auto stats =
      run_once(base_service(6, StrategyKind::kFixed, 3), wl, eng);
  check_identities(stats);
  EXPECT_GT(stats.partitions, 0u);
  EXPECT_GT(stats.fail_events, 0u);
}

// --- transport conservation (incl. partitions) ----------------------------

TEST(SaturationEngine, TransportConservationHoldsUnderPartitions) {
  auto wcfg = base_workload(8);
  wcfg.partitions = PartitionEventConfig{100.0, 25.0};
  wcfg.failures = CorrelatedFailureConfig{150.0, 2, 20.0};
  const auto wl = generate_production_workload(wcfg);

  ServiceConfig scfg = base_service(8, StrategyKind::kRandomServer, 3);
  scfg.link.drop_probability = 0.05;
  scfg.retry.max_attempts = 2;
  PartialLookupService service(scfg);
  SaturationEngine engine(service, wl, SaturationConfig{});
  const auto stats = engine.run();
  check_identities(stats);

  const net::TransportStats ts = service.total_transport();
  EXPECT_EQ(ts.sent + ts.duplicated, ts.processed + ts.dropped);
  EXPECT_EQ(ts.dropped,
            ts.dropped_down + ts.dropped_link + ts.dropped_partition);
  // Partitions were installed, so some messages must have crossed the cut.
  EXPECT_GT(stats.partitions, 0u);
  EXPECT_GT(ts.dropped_partition, 0u);
}

TEST(SaturationEngine, NoPartitionEventsMeansNoPartitionDrops) {
  const auto wl = generate_production_workload(base_workload(6));
  ServiceConfig scfg = base_service(6, StrategyKind::kRoundRobin, 2);
  scfg.link.drop_probability = 0.1;
  scfg.retry.max_attempts = 2;
  PartialLookupService service(scfg);
  SaturationEngine engine(service, wl, SaturationConfig{});
  (void)engine.run();
  EXPECT_EQ(service.total_transport().dropped_partition, 0u);
}

// --- coalescing -----------------------------------------------------------

TEST(SaturationEngine, CoalescingAbsorbsHotKeyTraffic) {
  // Slow servers + a hot Zipfian head: many same-key lookups arrive while
  // the leader is still in flight.
  auto wcfg = base_workload(6);
  wcfg.zipf_theta = 1.2;
  wcfg.offered_load = 50.0;
  const auto wl = generate_production_workload(wcfg);

  SaturationConfig on;
  on.service_time = 0.2;
  on.coalesce = true;
  const auto with = run_once(
      base_service(6, StrategyKind::kRoundRobin, 2), wl, on);
  check_identities(with);
  EXPECT_GT(with.coalesced, 100u);

  SaturationConfig off;
  off.service_time = 0.2;
  const auto without = run_once(
      base_service(6, StrategyKind::kRoundRobin, 2), wl, off);
  EXPECT_EQ(without.coalesced, 0u);
  EXPECT_EQ(with.executed + with.coalesced, without.executed);

  // Coalescing sheds server work, so the tail can only improve.
  PartialLookupService svc_on(base_service(6, StrategyKind::kRoundRobin, 2));
  PartialLookupService svc_off(base_service(6, StrategyKind::kRoundRobin, 2));
  SaturationEngine e_on(svc_on, wl, on);
  SaturationEngine e_off(svc_off, wl, off);
  auto s_on = e_on.run();
  auto s_off = e_off.run();
  EXPECT_LE(s_on.latency.percentile(99.0), s_off.latency.percentile(99.0));
  EXPECT_LT(svc_on.total_transport().sent, svc_off.total_transport().sent);

  // Per-key protocol satisfaction tracks the uncoalesced run closely: a
  // coalesced lookup inherits the leader's outcome.
  for (std::size_t k = 0; k < wl.keys.size(); ++k) {
    if (s_off.per_key_lookups[k] < 50) continue;
    const double rate_on =
        static_cast<double>(s_on.per_key_satisfied[k]) /
        static_cast<double>(s_on.per_key_lookups[k]);
    const double rate_off =
        static_cast<double>(s_off.per_key_satisfied[k]) /
        static_cast<double>(s_off.per_key_lookups[k]);
    EXPECT_NEAR(rate_on, rate_off, 0.1) << "key " << k;
  }
}

TEST(SaturationEngine, CoalesceOffTraceMatchesSequentialOracle) {
  // With coalescing and admission off, the engine is the protocol plus a
  // latency model: its per-lookup fingerprints must equal a plain loop's.
  const auto wl = generate_production_workload(base_workload(5));

  SaturationConfig eng;
  eng.record_trace = true;
  PartialLookupService engine_svc(base_service(5, StrategyKind::kHash, 2));
  SaturationEngine engine(engine_svc, wl, eng);
  const auto stats = engine.run();

  PartialLookupService oracle(base_service(5, StrategyKind::kHash, 2));
  for (std::size_t k = 0; k < wl.keys.size(); ++k) {
    oracle.place(wl.keys[k], wl.initial_entries[k]);
  }
  oracle.reset_transport();
  std::vector<std::uint64_t> expected;
  for (const auto& ev : wl.events) {
    switch (ev.kind) {
      case ProdEventKind::kLookup:
        expected.push_back(lookup_fingerprint(oracle.partial_lookup(
            wl.keys[ev.key], wl.config.target_answer_size)));
        break;
      case ProdEventKind::kAdd:
        oracle.add(wl.keys[ev.key], ev.entry);
        break;
      case ProdEventKind::kDelete:
        oracle.erase(wl.keys[ev.key], ev.entry);
        break;
      case ProdEventKind::kFail:
        oracle.fail_server(ev.server);
        break;
      case ProdEventKind::kRecover:
        oracle.recover_server(ev.server);
        break;
      case ProdEventKind::kPartitionStart:
        oracle.cluster().network().set_partition(
            net::split_partition(oracle.num_servers(), ev.aux));
        break;
      case ProdEventKind::kPartitionEnd:
        oracle.cluster().network().clear_partition();
        break;
    }
  }
  ASSERT_EQ(stats.trace.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(stats.trace[i], expected[i]) << "lookup " << i;
  }
  // And the transports agree byte for byte.
  EXPECT_EQ(engine_svc.total_transport(), oracle.total_transport());
}

// --- admission control ----------------------------------------------------

TEST(SaturationEngine, AdmissionControlShedsUnderOverload) {
  auto wcfg = base_workload(4);
  wcfg.offered_load = 100.0;  // far beyond 4 servers at 0.2s per message
  wcfg.num_events = 3000;
  wcfg.read_fraction = 1.0;  // writes bypass admission: keep them out
  const auto wl = generate_production_workload(wcfg);

  SaturationConfig open;
  open.service_time = 0.2;
  open.deadline = 5.0;
  const auto melt = run_once(
      base_service(4, StrategyKind::kFullReplication, 0), wl, open);
  check_identities(melt);
  EXPECT_EQ(melt.rejected, 0u);

  SaturationConfig gated = open;
  gated.admit_backlog_limit = 2.0;
  const auto held = run_once(
      base_service(4, StrategyKind::kFullReplication, 0), wl, gated);
  check_identities(held);
  EXPECT_GT(held.rejected, 100u);
  // Shedding keeps the admitted lookups inside the deadline: on-time
  // goodput must beat the meltdown run.
  EXPECT_GT(held.satisfied, melt.satisfied);
  EXPECT_LT(held.latency.percentile(99.0), melt.latency.percentile(99.0));
}

TEST(SaturationEngine, AdmissionLimitZeroDisablesShedding) {
  auto wcfg = base_workload(4);
  wcfg.offered_load = 100.0;
  wcfg.num_events = 1000;
  const auto wl = generate_production_workload(wcfg);
  SaturationConfig eng;
  eng.service_time = 0.5;
  const auto stats = run_once(
      base_service(4, StrategyKind::kRoundRobin, 2), wl, eng);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.executed, stats.lookups);
}

// --- determinism ----------------------------------------------------------

TEST(SaturationEngine, RunsAreDeterministic) {
  auto wcfg = base_workload(6);
  wcfg.flash_crowd = FlashCrowdConfig{60.0, 20.0, 2, 0.9};
  wcfg.failures = CorrelatedFailureConfig{100.0, 2, 10.0};
  wcfg.partitions = PartitionEventConfig{120.0, 15.0};
  const auto wl = generate_production_workload(wcfg);

  SaturationConfig eng;
  eng.service_time = 0.1;
  eng.deadline = 3.0;
  eng.coalesce = true;
  eng.admit_backlog_limit = 4.0;
  eng.record_trace = true;

  const auto a = run_once(
      base_service(6, StrategyKind::kRandomServer, 2), wl, eng);
  const auto b = run_once(
      base_service(6, StrategyKind::kRandomServer, 2), wl, eng);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.satisfied, b.satisfied);
  EXPECT_EQ(a.coalesced, b.coalesced);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_DOUBLE_EQ(a.latency.percentile(99.0), b.latency.percentile(99.0));
}

TEST(SaturationEngine, LossyRunMatchesThePinnedDigest) {
  // One run with every mechanism live, folded into one FNV-1a digest: a
  // lossy link (drops, duplicates, retries), flash crowds, correlated
  // failures, partitions, coalescing and admission. The digest covers
  // every stats counter, both per-key vectors, the per-lookup trace, the
  // latency percentiles and the transport counters, so any change to a
  // message, an Rng draw or an answer moves it.
  auto wcfg = base_workload(6);
  wcfg.flash_crowd = FlashCrowdConfig{60.0, 20.0, 2, 0.9};
  wcfg.failures = CorrelatedFailureConfig{100.0, 2, 10.0};
  wcfg.partitions = PartitionEventConfig{120.0, 15.0};
  wcfg.offered_load = 20.0;
  const auto wl = generate_production_workload(wcfg);

  ServiceConfig scfg = base_service(6, StrategyKind::kRandomServer, 3);
  scfg.link.drop_probability = 0.05;
  scfg.link.duplicate_probability = 0.03;
  scfg.retry.max_attempts = 3;
  SaturationConfig eng;
  eng.service_time = 0.2;
  eng.deadline = 3.0;
  eng.coalesce = true;
  eng.admit_backlog_limit = 1.5;
  eng.record_trace = true;
  PartialLookupService service(scfg);
  SaturationEngine engine(service, wl, eng);
  const SaturationStats s = engine.run();
  const net::TransportStats& ts = service.total_transport();
  check_identities(s);
  ASSERT_GT(s.coalesced, 0u);
  ASSERT_GT(s.rejected, 0u);
  ASSERT_GT(s.fail_events, 0u);
  ASSERT_GT(s.partitions, 0u);
  ASSERT_GT(ts.dup_suppressed, 0u);
  ASSERT_GT(ts.retries, 0u);

  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
  const auto mix_double = [&mix](double v) {
    mix(std::bit_cast<std::uint64_t>(v));
  };
  for (const std::size_t c :
       {s.lookups, s.executed, s.coalesced, s.rejected, s.satisfied,
        s.satisfied_late, s.unsatisfied, s.adds, s.deletes, s.fail_events,
        s.recover_events, s.partitions}) {
    mix(c);
  }
  mix_double(s.horizon);
  mix_double(s.total_servers_contacted);
  for (const auto c : s.per_key_lookups) mix(c);
  for (const auto c : s.per_key_satisfied) mix(c);
  for (const auto f : s.trace) mix(f);
  mix(s.latency.count());
  for (const double p : {0.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    mix_double(s.latency.percentile(p));
  }
  mix_double(s.latency.mean());
  for (const auto counter : net::TransportStats::kCounters) mix(ts.*counter);
  for (const auto c : ts.per_server_processed) mix(c);
  EXPECT_EQ(h, 0x32c942fc764a9b1cULL) << std::hex << "digest 0x" << h;
}

}  // namespace
}  // namespace pls::workload
