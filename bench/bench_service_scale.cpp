// Key-count scaling of the shared-cluster service: how much memory and
// time does ONE more key cost?
//
// For K in {1k, 10k, 100k} keys we build a PartialLookupService (n hosts,
// Round-Robin-2 per key, h entries each) and report build throughput
// (keys/sec, wall-clock, informational only) plus the deterministic
// allocation counters (PLS_COUNT_ALLOCS builds): allocs/key and bytes/key.
// A shared cluster stores per key only its tenants, its transport channel
// and its strategy object, so bytes/key must stay essentially flat as K
// grows — the 100k figure is gated to within 2x of the 1k figure.
//
// At K = 10k a realistic deployment — a mildly lossy link plus balanced
// add/delete churn per key — is run against the pre-tenancy design: K
// independent standalone strategies, each owning a private Cluster +
// Network + n host servers. Loss makes deliveries sequenced, so every
// server accumulates duplicate-suppression window state; the per-key-
// cluster design retains that per key x server (each window capped at
// 4096 seqnos), while the shared cluster's n host windows are shared by
// ALL keys and stay O(n) total. The shared design is gated to retain
// >= 5x less live memory per key than the per-key-cluster layout.
//
// scripts/perf_check.sh runs this binary in the instrumented build-perf
// tree and diffs --json-out against the checked-in
// BENCH_service_scale.json; wall-clock numbers stay out of the JSON.
// The sharded-execution series drives the same service through
// sim::ShardedRuntime at S in {1, 2, 4, 8} worker shards and reports
// lookup dispatch throughput (lookups/sec, wall-clock, informational —
// single-core CI boxes cannot show a speedup) next to the deterministic
// folded lookup counters. The counters are hard-gated in-binary: every
// shard count must produce byte-identical folded tallies, equal to a
// sequential oracle replaying the same lookups — the determinism contract
// of the sharded runtime, enforced where the perf numbers are produced.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"

#include "pls/common/alloc_stats.hpp"
#include "pls/core/service.hpp"
#include "pls/core/strategy_factory.hpp"
#include "pls/metrics/shard_fold.hpp"
#include "pls/runtime/sharded_runtime.hpp"

namespace {

using namespace pls;

constexpr std::size_t kNumServers = 8;
constexpr std::size_t kEntriesPerKey = 4;
/// Comparison deployment: add/delete pairs per key and the link model that
/// makes deliveries sequenced (and hence dedup-windowed).
constexpr std::size_t kChurnPairs = 150;
constexpr net::LinkModel kLossyLink{.drop_probability = 0.02,
                                    .duplicate_probability = 0.02,
                                    .seed = 0};

core::ServiceConfig scale_config(std::size_t expected_keys,
                                 std::uint64_t seed) {
  core::ServiceConfig cfg;
  cfg.num_servers = kNumServers;
  cfg.default_strategy = {.kind = core::StrategyKind::kRoundRobin,
                          .param = 2};
  cfg.expected_keys = expected_keys;
  cfg.seed = seed;
  return cfg;
}

std::vector<Entry> key_entries(std::size_t k) {
  std::vector<Entry> out(kEntriesPerKey);
  for (std::size_t i = 0; i < kEntriesPerKey; ++i) {
    out[i] = static_cast<Entry>(kEntriesPerKey * k + i);
  }
  return out;
}

struct ScalePoint {
  std::size_t keys = 0;
  double keys_per_sec = 0;        // wall clock; printed, never gated
  double allocs_per_key = 0;      // cumulative (PLS_COUNT_ALLOCS)
  double bytes_per_key = 0;       // cumulative allocation volume per key
  double live_bytes_per_key = 0;  // retained state per key, post-build
};

/// Builds and populates a K-key shared-cluster service, measuring both the
/// allocation bill of the population (construction + K places, cumulative)
/// and the live bytes the finished service retains per key.
ScalePoint run_shared(std::size_t keys, std::uint64_t seed) {
  ScalePoint point;
  point.keys = keys;
  const auto alloc_before = AllocStats::current();
  const auto t0 = std::chrono::steady_clock::now();
  {
    core::PartialLookupService service(scale_config(keys, seed));
    for (std::size_t k = 0; k < keys; ++k) {
      service.place("key-" + std::to_string(k), key_entries(k));
    }
    const auto t1 = std::chrono::steady_clock::now();
    const auto delta = AllocStats::current() - alloc_before;
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    point.keys_per_sec =
        secs > 0 ? static_cast<double>(keys) / secs : 0.0;
    point.allocs_per_key = static_cast<double>(delta.allocations) /
                           static_cast<double>(keys);
    point.bytes_per_key =
        static_cast<double>(delta.bytes) / static_cast<double>(keys);
    point.live_bytes_per_key =
        static_cast<double>(delta.live_bytes) / static_cast<double>(keys);
  }
  return point;
}

/// The K = 10k design comparison, shared-cluster side: lossy link, place
/// plus balanced add/delete churn per key. Returns retained live
/// bytes/key.
double run_shared_lossy(std::size_t keys, std::size_t churn,
                        std::uint64_t seed) {
  const auto alloc_before = AllocStats::current();
  {
    auto cfg = scale_config(keys, seed);
    cfg.link = kLossyLink;
    cfg.retry = {.max_attempts = 3};
    core::PartialLookupService service(cfg);
    for (std::size_t k = 0; k < keys; ++k) {
      const Key key = "key-" + std::to_string(k);
      service.place(key, key_entries(k));
      for (std::size_t u = 0; u < churn; ++u) {
        const Entry v = static_cast<Entry>(1'000'000 + churn * k + u);
        service.add(key, v);
        service.erase(key, v);
      }
    }
    const auto delta = AllocStats::current() - alloc_before;
    return static_cast<double>(delta.live_bytes) /
           static_cast<double>(keys);
  }
}

/// The pre-tenancy baseline: the same keys, deployment and churn, but each
/// key on its own standalone strategy with a private cluster and network.
/// Returns the retained live bytes per key.
double run_per_key_clusters(std::size_t keys, std::size_t churn,
                            std::uint64_t seed) {
  const auto alloc_before = AllocStats::current();
  std::vector<std::unique_ptr<core::Strategy>> strategies;
  strategies.reserve(keys);
  const auto base = scale_config(keys, seed);
  for (std::size_t k = 0; k < keys; ++k) {
    core::StrategyConfig cfg = base.default_strategy;
    cfg.link = kLossyLink;
    cfg.retry = {.max_attempts = 3};
    cfg.seed = seed + k;
    strategies.push_back(core::make_strategy(cfg, kNumServers));
    strategies.back()->place(key_entries(k));
    for (std::size_t u = 0; u < churn; ++u) {
      const Entry v = static_cast<Entry>(1'000'000 + churn * k + u);
      strategies.back()->add(v);
      strategies.back()->erase(v);
    }
  }
  const auto delta = AllocStats::current() - alloc_before;
  return static_cast<double>(delta.live_bytes) /
         static_cast<double>(keys);
}

/// Live bytes/key of a K-key service with `num_servers` hosts and NO
/// entries placed: the infrastructure component (tenants + per-key channel
/// + strategy object) without any EntryStore contents. Differencing two
/// host counts separates the per-host tenant share from the host-count-
/// independent control share.
double run_shared_infra(std::size_t keys, std::size_t num_servers,
                        std::uint64_t seed) {
  const auto alloc_before = AllocStats::current();
  {
    auto cfg = scale_config(keys, seed);
    cfg.num_servers = num_servers;
    core::PartialLookupService service(cfg);
    const std::vector<Entry> none;
    for (std::size_t k = 0; k < keys; ++k) {
      service.place("key-" + std::to_string(k), none);
    }
    const auto delta = AllocStats::current() - alloc_before;
    return static_cast<double>(delta.live_bytes) /
           static_cast<double>(keys);
  }
}

/// Per-component decomposition of live bytes/key at one K (see
/// run_shared_infra): entries = total - infra(n); tenants scale with the
/// host count, control does not, so tenants = 2 * (infra(n) - infra(n/2))
/// and control is the remainder.
struct Breakdown {
  double total = 0;    // live bytes/key, populated service (h entries)
  double entries = 0;  // EntryStore contents
  double tenants = 0;  // per-host tenant objects (n hosts' worth)
  double control = 0;  // strategy object + per-key transport channel
};

Breakdown run_breakdown(std::size_t keys, double total_live,
                        std::uint64_t seed) {
  Breakdown b;
  b.total = total_live;
  const double infra_full = run_shared_infra(keys, kNumServers, seed);
  const double infra_half = run_shared_infra(keys, kNumServers / 2, seed);
  b.entries = total_live - infra_full;
  b.tenants = 2.0 * (infra_full - infra_half);
  b.control = infra_full - b.tenants;
  return b;
}

// --- membership migration traffic: MultiProbe vs Round-Robin ---------------

constexpr std::size_t kMigrationServers = 8;
constexpr std::size_t kMigrationEntries = 256;

/// Per-server entry sets of a strategy's current placement.
std::vector<std::vector<Entry>> placement_sets(const core::Strategy& s) {
  return s.placement().servers;
}

/// Entry-copies present in `after` on a server where they were not before.
std::size_t copies_moved(const std::vector<std::vector<Entry>>& before,
                         const std::vector<std::vector<Entry>>& after) {
  std::size_t moved = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    for (Entry v : after[i]) {
      const bool had =
          i < before.size() &&
          std::find(before[i].begin(), before[i].end(), v) !=
              before[i].end();
      if (!had) ++moved;
    }
  }
  return moved;
}

/// Peak-to-mean per-server storage ratio (1.0 = perfectly balanced).
double peak_to_mean(const core::Strategy& s) {
  std::size_t peak = 0;
  std::size_t total = 0;
  std::size_t live = 0;
  const auto p = s.placement();
  for (std::size_t i = 0; i < p.servers.size(); ++i) {
    if (!s.network().failures().is_up(static_cast<ServerId>(i))) continue;
    peak = std::max(peak, p.servers[i].size());
    total += p.servers[i].size();
    ++live;
  }
  if (total == 0 || live == 0) return 0.0;
  return static_cast<double>(peak) /
         (static_cast<double>(total) / static_cast<double>(live));
}

struct MigrationPoint {
  double join_processed = 0;   // messages a single join costs
  double leave_processed = 0;  // messages a graceful leave costs
  double join_moved = 0;       // entry-copies re-homed by the join
  double total_copies = 0;     // copies before the join
  double balance = 0;          // peak-to-mean storage after place
};

/// Places kMigrationEntries on a standalone n-server strategy, then runs
/// one join and one graceful leave, measuring processed messages and (for
/// the join) the copies that migrated. All counters are deterministic
/// (seeded streams, lossless link), so the JSON diffs exactly.
MigrationPoint run_migration(core::StrategyKind kind, std::uint64_t seed) {
  MigrationPoint point;
  core::StrategyConfig cfg;
  cfg.kind = kind;
  cfg.param = 2;
  cfg.seed = seed;
  auto s = core::make_strategy(cfg, kMigrationServers);
  std::vector<Entry> entries(kMigrationEntries);
  for (std::size_t i = 0; i < kMigrationEntries; ++i) {
    entries[i] = static_cast<Entry>(i + 1);
  }
  s->place(entries);
  point.balance = peak_to_mean(*s);
  const auto before = placement_sets(*s);
  for (const auto& server : before) {
    point.total_copies += static_cast<double>(server.size());
  }

  s->network().reset_stats();
  s->add_server();
  point.join_processed =
      static_cast<double>(s->network().stats().processed);
  point.join_moved =
      static_cast<double>(copies_moved(before, placement_sets(*s)));

  s->network().reset_stats();
  s->remove_server(2, net::Loss::kGraceful);
  point.leave_processed =
      static_cast<double>(s->network().stats().processed);
  return point;
}

// --- sharded lookup throughput series -------------------------------------

constexpr std::size_t kShardKeys = 2048;
constexpr std::size_t kShardLookups = 50'000;
constexpr std::size_t kShardTarget = 2;
/// Timed passes per shard count: one 50k-lookup pass is a few tens of
/// milliseconds, short enough for scheduler noise to swing it by 2x, so
/// the series reports the median pass.
constexpr std::size_t kShardPasses = 5;

struct ShardedPoint {
  std::size_t shards = 0;
  double lookups_per_sec = 0;  // wall clock; printed, never gated
  metrics::ShardLookupCounters totals;
  /// Per-shard sampled occupancy high-water (timing-dependent: printed for
  /// the oversubscription analysis, never in the JSON).
  std::vector<std::uint64_t> queue_peaks;
};

/// Dispatches the canonical lookup mix (round-robin over kShardKeys keys)
/// through a fresh ShardedRuntime with S worker shards and returns one
/// pass's throughput plus the folded lookup counters.
ShardedPoint run_sharded(std::size_t shards, std::uint64_t seed) {
  sim::ShardedRuntimeConfig rcfg;
  rcfg.shards = shards;
  rcfg.service = scale_config(kShardKeys, seed);
  sim::ShardedRuntime runtime(rcfg);
  for (std::size_t k = 0; k < kShardKeys; ++k) {
    runtime.place("key-" + std::to_string(k), key_entries(k));
  }
  runtime.drain();

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kShardLookups; ++i) {
    runtime.lookup("key-" + std::to_string(i % kShardKeys), kShardTarget);
  }
  runtime.drain();
  const auto t1 = std::chrono::steady_clock::now();

  ShardedPoint point;
  point.shards = shards;
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  point.lookups_per_sec =
      secs > 0 ? static_cast<double>(kShardLookups) / secs : 0.0;
  point.totals = runtime.lookup_totals();
  for (std::size_t sh = 0; sh < runtime.shards(); ++sh) {
    point.queue_peaks.push_back(runtime.shard_queue_peak(sh));
  }
  return point;
}

/// The sequential oracle the sharded counters are gated against.
metrics::ShardLookupCounters run_sharded_oracle(std::uint64_t seed) {
  core::PartialLookupService service(scale_config(kShardKeys, seed));
  for (std::size_t k = 0; k < kShardKeys; ++k) {
    service.place("key-" + std::to_string(k), key_entries(k));
  }
  metrics::ShardLookupCounters totals;
  for (std::size_t i = 0; i < kShardLookups; ++i) {
    const auto r = service.partial_lookup(
        "key-" + std::to_string(i % kShardKeys), kShardTarget);
    metrics::ShardLookupCounters delta;
    delta.lookups = 1;
    delta.satisfied = r.satisfied ? 1 : 0;
    delta.servers_contacted = r.servers_contacted;
    delta.entries_returned = r.entries.size();
    totals.merge(delta);
  }
  return totals;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = pls::bench::Args::parse(argc, argv);
  const bool counting = pls::AllocStats::counting_enabled();

  pls::bench::print_title(
      "Shared-cluster key scaling: n = 8 hosts, Round-Robin-2, h = 4 "
      "entries per key",
      counting ? "alloc counters enabled (PLS_COUNT_ALLOCS)"
               : "alloc counters DISABLED - bytes/key reads 0; build with "
                 "-DPLS_COUNT_ALLOCS=ON for the gated figures");
  pls::bench::print_row_header(
      {"keys", "keys/sec", "allocs/key", "bytes/key", "live bytes/key"});

  std::vector<ScalePoint> points;
  for (std::size_t keys : {std::size_t{1000}, std::size_t{10000},
                           std::size_t{100000}}) {
    points.push_back(run_shared(keys, args.seed));
    const auto& p = points.back();
    pls::bench::print_cell(p.keys);
    pls::bench::print_cell(p.keys_per_sec, 16, 0);
    pls::bench::print_cell(p.allocs_per_key, 16, 2);
    pls::bench::print_cell(p.bytes_per_key, 16, 1);
    pls::bench::print_cell(p.live_bytes_per_key, 16, 1);
    pls::bench::end_row();
  }

  // Sharded execution series: throughput informational, counters gated.
  pls::bench::print_title(
      "Sharded runtime lookup dispatch: " + std::to_string(kShardKeys) +
          " keys, " + std::to_string(kShardLookups) + " lookups, t = " +
          std::to_string(kShardTarget),
      "lookups/sec is wall-clock (not gated); folded counters must be "
      "bit-identical across shard counts and to the sequential oracle");
  pls::bench::print_row_header(
      {"shards", "lookups/sec", "contacted", "entries", "satisfied"});
  const auto oracle_totals = run_sharded_oracle(args.seed);
  std::vector<ShardedPoint> sharded_points;
  bool sharded_gate_failed = false;
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                             std::size_t{8}}) {
    std::vector<double> rates;
    for (std::size_t pass = 0; pass < kShardPasses; ++pass) {
      ShardedPoint p = run_sharded(shards, args.seed);
      if (!(p.totals == oracle_totals)) {
        std::cerr << "FAIL: sharded lookup counters at S=" << p.shards
                  << " (pass " << pass << ") diverge from the sequential "
                  << "oracle - the shard-count determinism contract is "
                  << "broken\n";
        sharded_gate_failed = true;
      }
      rates.push_back(p.lookups_per_sec);
      if (pass + 1 == kShardPasses) sharded_points.push_back(std::move(p));
    }
    std::sort(rates.begin(), rates.end());
    auto& p = sharded_points.back();
    p.lookups_per_sec = rates[kShardPasses / 2];
    pls::bench::print_cell(p.shards);
    pls::bench::print_cell(p.lookups_per_sec, 16, 0);
    pls::bench::print_cell(p.totals.servers_contacted, 16);
    pls::bench::print_cell(p.totals.entries_returned, 16);
    pls::bench::print_cell(p.totals.satisfied, 16);
    pls::bench::end_row();
  }
  if (sharded_gate_failed) return 1;
  pls::bench::print_note(
      "lookups/sec is the median of " + std::to_string(kShardPasses) +
      " passes, each on a fresh runtime; the queue high-water below is the "
      "last pass's");
  pls::bench::print_note(
      "gate passed: folded lookup counters bit-identical across S = "
      "{1, 2, 4, 8} on every pass and equal to the sequential oracle");
  for (const auto& p : sharded_points) {
    std::string peaks;
    for (std::uint64_t q : p.queue_peaks) {
      if (!peaks.empty()) peaks += ", ";
      peaks += std::to_string(q);
    }
    pls::bench::print_note("S=" + std::to_string(p.shards) +
                           " queue occupancy high-water per shard: [" +
                           peaks + "]");
  }
  pls::bench::print_note(
      "expected shape: with S <= cores, throughput grows with S; with "
      "S > cores the broadcastless lookup mix still splits across rings "
      "while idle workers park on a futex instead of yield-thrashing, so "
      "throughput flattens rather than dipping");

  // Design comparison under the lossy-churn deployment (see header).
  const std::size_t kCompareKeys = 10000;
  const double shared_lossy_live =
      run_shared_lossy(kCompareKeys, kChurnPairs, args.seed);
  const double per_cluster_live =
      run_per_key_clusters(kCompareKeys, kChurnPairs, args.seed);
  const double ratio =
      shared_lossy_live > 0 ? per_cluster_live / shared_lossy_live : 0.0;
  pls::bench::print_note(
      "lossy-churn deployment at K = 10k (" + std::to_string(kChurnPairs) +
      " add/delete pairs per key): shared cluster retains " +
      std::to_string(shared_lossy_live) +
      " live bytes/key, per-key clusters " +
      std::to_string(per_cluster_live) + " -> " + std::to_string(ratio) +
      "x smaller");

  // Per-component decomposition of the K = 10k live footprint.
  const Breakdown breakdown =
      counting ? run_breakdown(10000, points[1].live_bytes_per_key, args.seed)
               : Breakdown{};
  if (counting) {
    pls::bench::print_title(
        "Data-plane memory, K = 10k: live bytes/key by component",
        "entries = populated minus empty-placement service; tenants scale "
        "with the host count, control (strategy + channel) does not");
    pls::bench::print_row_header(
        {"total", "entries", "tenants", "control"});
    pls::bench::print_cell(breakdown.total, 16, 1);
    pls::bench::print_cell(breakdown.entries, 16, 1);
    pls::bench::print_cell(breakdown.tenants, 16, 1);
    pls::bench::print_cell(breakdown.control, 16, 1);
    pls::bench::end_row();
  }

  // Membership migration traffic: MultiProbe vs Round-Robin, head to head.
  const MigrationPoint rr =
      run_migration(core::StrategyKind::kRoundRobin, args.seed);
  const MigrationPoint mp =
      run_migration(core::StrategyKind::kMultiProbe, args.seed);
  pls::bench::print_title(
      "Membership migration traffic: n = " +
          std::to_string(kMigrationServers) + " -> join -> graceful leave, "
          "h = " + std::to_string(kMigrationEntries) + ", y = 2",
      "processed messages per membership change; MultiProbe moves ~1/n of "
      "the copies, Round-Robin reshuffles its slot assignment");
  pls::bench::print_row_header(
      {"strategy", "join msgs", "leave msgs", "join moved", "balance"});
  pls::bench::print_cell("RoundRobin");
  pls::bench::print_cell(rr.join_processed, 16, 0);
  pls::bench::print_cell(rr.leave_processed, 16, 0);
  pls::bench::print_cell(rr.join_moved, 16, 0);
  pls::bench::print_cell(rr.balance, 16, 3);
  pls::bench::end_row();
  pls::bench::print_cell("MultiProbe");
  pls::bench::print_cell(mp.join_processed, 16, 0);
  pls::bench::print_cell(mp.leave_processed, 16, 0);
  pls::bench::print_cell(mp.join_moved, 16, 0);
  pls::bench::print_cell(mp.balance, 16, 3);
  pls::bench::end_row();

  // Migration gates (deterministic counters: enforced in every build).
  {
    bool failed = false;
    const double share_bound =
        2.0 * mp.total_copies / (kMigrationServers + 1);
    if (mp.join_moved > share_bound) {
      std::cerr << "FAIL: MultiProbe join moved " << mp.join_moved
                << " copies, above 2x the theoretical 1/(n+1) share ("
                << share_bound << ")\n";
      failed = true;
    }
    if (!(mp.join_processed < rr.join_processed) ||
        !(mp.leave_processed < rr.leave_processed)) {
      std::cerr << "FAIL: MultiProbe migration traffic (join "
                << mp.join_processed << ", leave " << mp.leave_processed
                << ") not below Round-Robin (join " << rr.join_processed
                << ", leave " << rr.leave_processed << ")\n";
      failed = true;
    }
    if (mp.balance > 1.5) {
      std::cerr << "FAIL: MultiProbe peak-to-mean storage balance "
                << mp.balance << " above 1.5\n";
      failed = true;
    }
    if (failed) return 1;
    pls::bench::print_note(
        "gates passed: MultiProbe join moved <= 2x the 1/(n+1) share, "
        "join+leave traffic below Round-Robin, balance <= 1.5x mean");
  }

  if (!args.json_out.empty()) {
    std::ofstream out(args.json_out);
    if (!out) {
      std::cerr << "cannot open " << args.json_out << " for writing\n";
      return 1;
    }
    out << "{\n";
    for (const auto& p : points) {
      out << "  \"service_scale/K" << p.keys << "\": {\n"
          << "    \"allocs_per_key\": " << std::fixed << std::setprecision(3)
          << p.allocs_per_key << ",\n"
          << "    \"bytes_per_key\": " << p.bytes_per_key << ",\n"
          << "    \"live_bytes_per_key\": " << p.live_bytes_per_key
          << "\n  },\n";
    }
    for (const auto& p : sharded_points) {
      // lookups_per_sec is wall-clock and machine-dependent; the diff in
      // scripts/perf_check.sh skips *_per_sec keys. The counters are the
      // deterministic, gateable part of the series.
      out << "  \"service_scale/sharded_S" << p.shards << "\": {\n"
          << "    \"lookups_per_sec\": " << std::fixed << std::setprecision(0)
          << p.lookups_per_sec << ",\n"
          << std::setprecision(3) << "    \"servers_contacted\": "
          << static_cast<double>(p.totals.servers_contacted) << ",\n"
          << "    \"entries_returned\": "
          << static_cast<double>(p.totals.entries_returned) << ",\n"
          << "    \"satisfied\": " << static_cast<double>(p.totals.satisfied)
          << "\n  },\n";
    }
    if (counting) {
      out << "  \"service_scale/breakdown_K10000\": {\n"
          << "    \"total_live_bytes_per_key\": " << breakdown.total
          << ",\n"
          << "    \"entry_live_bytes_per_key\": " << breakdown.entries
          << ",\n"
          << "    \"tenant_live_bytes_per_key\": " << breakdown.tenants
          << ",\n"
          << "    \"control_live_bytes_per_key\": " << breakdown.control
          << "\n  },\n";
    }
    out << "  \"service_scale/migration_n8_h256\": {\n"
        << "    \"rr_join_processed\": " << rr.join_processed << ",\n"
        << "    \"rr_leave_processed\": " << rr.leave_processed << ",\n"
        << "    \"mp_join_processed\": " << mp.join_processed << ",\n"
        << "    \"mp_leave_processed\": " << mp.leave_processed << ",\n"
        << "    \"mp_join_moved_copies\": " << mp.join_moved << ",\n"
        << "    \"mp_peak_to_mean_x1000\": "
        << 1000.0 * mp.balance << "\n  },\n";
    out << "  \"service_scale/lossy_churn_K10000\": {\n"
        << "    \"shared_live_bytes_per_key\": " << shared_lossy_live
        << ",\n"
        << "    \"per_key_cluster_live_bytes_per_key\": " << per_cluster_live
        << ",\n"
        << "    \"shared_vs_per_key_ratio\": " << ratio << "\n  }\n}\n";
    if (!out.good()) {
      std::cerr << "error writing " << args.json_out << '\n';
      return 1;
    }
  }

  if (counting) {
    // The two scaling gates, enforced where the counters are real.
    bool failed = false;
    if (points[2].bytes_per_key > 2.0 * points[0].bytes_per_key) {
      std::cerr << "FAIL: bytes/key at K=100k ("
                << points[2].bytes_per_key << ") exceeds 2x the K=1k figure ("
                << points[0].bytes_per_key << ") - per-key state is not "
                << "O(K)\n";
      failed = true;
    }
    if (shared_lossy_live > 0 && ratio < 5.0) {
      std::cerr << "FAIL: shared cluster only " << ratio
                << "x smaller than the per-key-cluster design at K=10k "
                << "(need >= 5x)\n";
      failed = true;
    }
    if (failed) return 1;
    pls::bench::print_note(
        "gates passed: bytes/key flat within 2x from 1k to 100k keys; "
        "shared cluster >= 5x smaller than per-key clusters at 10k keys");
  }
  return 0;
}
