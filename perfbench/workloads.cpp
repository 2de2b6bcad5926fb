// The three benchmark workloads. Each one generates its inputs from the seed,
// then runs rounds until --seconds have passed: a round rebuilds the system
// from scratch and replays the same inputs, so every round must produce
// the same outputs (checked), and the first round is checked against an
// independent replay. Client-op counts and ratios are therefore exact
// functions of the seed; only the times depend on the machine.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <span>

#include "bench.hpp"
#include "pls/common/hashing.hpp"
#include "pls/common/rng.hpp"
#include "pls/core/strategy_factory.hpp"
#include "pls/metrics/availability.hpp"
#include "pls/metrics/shard_fold.hpp"
#include "pls/runtime/sharded_runtime.hpp"
#include "pls/sim/trial_runner.hpp"
#include "pls/wire/snapshot.hpp"
#include "pls/workload/generator.hpp"
#include "pls/workload/replay.hpp"
#include "pls/workload/saturation.hpp"
#include "pls/workload/update_stream.hpp"

namespace perfbench {
namespace {

using namespace pls;

// --- shared catalogue shape (lookup_routed, saturation_lossy) --------------

constexpr std::size_t kServers = 8;
constexpr std::size_t kEntriesPerKey = 32;
constexpr std::size_t kTarget = 5;
constexpr double kTheta = 0.99;

// --- routed workloads: a ShardedRuntime at S = 2 plus the coordinator ------

constexpr std::size_t kRoutedKeys = 32768;
constexpr std::size_t kShards = 2;
constexpr std::size_t kBatch = 256;
constexpr std::size_t kRoutedLookups = 1u << 19;
/// Client ops the ledger replays through each layer.
constexpr std::size_t kLedgerClientOps = 40000;

// --- saturation_lossy: one service, one thread ----------------------------

constexpr std::size_t kSatKeys = 4096;
constexpr std::size_t kSatEvents = 160000;
constexpr double kSatLoad = 0.35;
constexpr std::size_t kSatHotKeys = 8;

// --- paper_dynamic: §6 on standalone strategies ---------------------------

constexpr std::size_t kPaperServers = 10;
constexpr std::size_t kPaperEntries = 100;
constexpr std::size_t kPaperTarget = 15;
constexpr std::size_t kPaperTrials = 24;
constexpr std::size_t kPaperUpdates = 5000;
constexpr std::size_t kPaperJobs = 2;

/// The six placement families, one sixth of the keys each.
core::StrategyConfig family_config(std::size_t family, std::size_t x,
                                   std::size_t y) {
  core::StrategyConfig cfg;
  switch (family) {
    case 0:
      cfg.kind = core::StrategyKind::kFullReplication;
      cfg.param = 1;
      break;
    case 1:
      cfg.kind = core::StrategyKind::kFixed;
      cfg.param = x;
      break;
    case 2:
      cfg.kind = core::StrategyKind::kRandomServer;
      cfg.param = x / 2;
      break;
    case 3:
      cfg.kind = core::StrategyKind::kRoundRobin;
      cfg.param = y;
      break;
    case 4:
      cfg.kind = core::StrategyKind::kHash;
      cfg.param = y;
      break;
    default:
      cfg.kind = core::StrategyKind::kMultiProbe;
      cfg.param = y;
      break;
  }
  return cfg;
}

/// The family the mixed catalogue's policy gives a key: a pure function of
/// the key's content, as the sharded runtime requires.
std::size_t family_of(const Key& key) {
  return static_cast<std::size_t>(
      mix_hash(key_content_hash(key), 0x66616d696c79ULL) % 6);
}

std::optional<core::StrategyConfig> mixed_policy(const Key& key) {
  return family_config(family_of(key), 8, 2);
}

core::ServiceConfig mixed_service(std::size_t keys, std::uint64_t seed) {
  core::ServiceConfig cfg;
  cfg.num_servers = kServers;
  cfg.strategy_policy = mixed_policy;
  cfg.expected_keys = keys;
  cfg.seed = seed;
  return cfg;
}

/// Catalogue names: `prefix`, the key's index, a slash and random letters,
/// `min_len` + [0, `spread`] bytes in all (at least two letters). The last
/// two letters are drawn until the name's family is its key's popularity
/// rank (by client ops in `wl`) mod 6. Under Zipf 0.99 the few hottest keys
/// carry a large share of the ops, so with families drawn at random the
/// family mix of the ops, and with it the cost per op, would change from
/// seed to seed; this way every seed gives each rank the same family, and
/// each family a sixth of the keys.
std::vector<Key> catalogue_names(const workload::ProductionWorkload& wl,
                                 const std::string& prefix,
                                 std::size_t min_len, std::size_t spread,
                                 std::uint64_t seed) {
  const std::size_t n = wl.keys.size();
  std::vector<std::uint64_t> ops(n, 0);
  for (const auto& ev : wl.events) {
    if (ev.kind == workload::ProdEventKind::kLookup ||
        ev.kind == workload::ProdEventKind::kAdd ||
        ev.kind == workload::ProdEventKind::kDelete) {
      ++ops[ev.key];
    }
  }
  std::vector<std::size_t> by_rank(n);
  for (std::size_t k = 0; k < n; ++k) by_rank[k] = k;
  std::stable_sort(
      by_rank.begin(), by_rank.end(),
      [&](std::size_t a, std::size_t b) { return ops[a] > ops[b]; });

  Rng rng(mix_hash(seed, 0x6e616d6573ULL));
  const auto letter = [&] { return static_cast<char>('a' + rng.uniform(26)); };
  std::vector<Key> names(n);
  for (std::size_t rank = 0; rank < n; ++rank) {
    const std::size_t k = by_rank[rank];
    Key name = prefix + std::to_string(k) + "/";
    const std::size_t len = std::max(
        name.size() + 2,
        min_len + static_cast<std::size_t>(rng.uniform(spread + 1)));
    while (name.size() < len) name.push_back(letter());
    while (family_of(name) != rank % 6) {
      name[len - 2] = letter();
      name[len - 1] = letter();
    }
    names[k] = std::move(name);
  }
  return names;
}

Op to_op(const workload::ProdEvent& ev) {
  Op op;
  op.key = ev.key;
  op.entry = ev.entry;
  op.server = ev.server;
  op.aux = ev.aux;
  op.time = ev.time;
  switch (ev.kind) {
    case workload::ProdEventKind::kLookup: op.kind = Op::Kind::kLookup; break;
    case workload::ProdEventKind::kAdd: op.kind = Op::Kind::kAdd; break;
    case workload::ProdEventKind::kDelete: op.kind = Op::Kind::kErase; break;
    case workload::ProdEventKind::kFail: op.kind = Op::Kind::kFail; break;
    case workload::ProdEventKind::kRecover: op.kind = Op::Kind::kRecover; break;
    case workload::ProdEventKind::kPartitionStart:
      op.kind = Op::Kind::kPartitionStart;
      break;
    case workload::ProdEventKind::kPartitionEnd:
      op.kind = Op::Kind::kPartitionEnd;
      break;
  }
  return op;
}

std::uint64_t fnv(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ULL;
  return h;
}

/// The ledger's slice of a stream: the first kLedgerClientOps client ops
/// and the control ops among them.
std::vector<Op> ledger_prefix(const std::vector<Op>& ops) {
  std::vector<Op> out;
  std::size_t clients = 0;
  for (const Op& op : ops) {
    if (clients >= kLedgerClientOps) break;
    out.push_back(op);
    if (op.client()) ++clients;
  }
  return out;
}

/// The timing samples of a run's measured rounds. Every round rebuilds the
/// system and repeats the same work in the same order, so each round's
/// figures are samples of one quantity.
/// - Throughput is taken from the fastest round. On a shared host, other
///   tenants slow whole rounds, and stretches of seconds, by a quarter or
///   more; a change in the program moves every round alike.
/// - The batch percentiles are taken over every batch of every measured
///   round, so stalls that strike any batch count (saturation_lossy, with
///   one batch per round, is the exception; see there).
/// - Set-up and checkpoint times are the median of their samples.
struct Timings {
  double ops_per_round = 0.0;
  std::vector<double> busy_s;    ///< per round: the time its ops took
  std::vector<double> batch_us;  ///< every measured batch
  std::vector<double> setup_s;
  std::vector<double> save_ms;
  std::vector<double> load_ms;

  double least_busy_s() const {
    return *std::min_element(busy_s.begin(), busy_s.end());
  }
  double ops_per_s() const { return ops_per_round / least_busy_s(); }

  void add_round(double busy, const std::vector<double>& batches) {
    busy_s.push_back(busy);
    batch_us.insert(batch_us.end(), batches.begin(), batches.end());
  }
};

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

void set_e2e(Result& r, const Timings& t, double ok_ratio, double rss) {
  r.set("ops_per_s", t.ops_per_s(), "1/s");
  std::vector<double> batches = t.batch_us;
  r.set("batch_p50_us", percentile(batches, 50.0), "us");
  r.set("batch_p99_us", percentile(batches, 99.0), "us");
  r.set("setup_s", median(t.setup_s), "s");
  r.set("lookup_ok_ratio", ok_ratio, "fraction");
  r.set("rss_peak_mb", rss, "MiB");
  r.note("timing samples: " + std::to_string(t.busy_s.size()) +
         " measured rounds, " + std::to_string(t.batch_us.size()) +
         " batches, " + std::to_string(t.setup_s.size()) + " set-ups");
}

/// Per-layer figures of the traced run that come from its untraced rounds:
/// their throughput against the traced rounds' (the tracing overhead), and
/// the checkpoint's median save and load times.
void set_rounds(Result& r, const Timings& untraced, const Timings& traced) {
  r.set("ledger.untraced_ops_per_s", untraced.ops_per_s(), "1/s");
  r.set("ledger.traced_ops_per_s", traced.ops_per_s(), "1/s");
  r.set("checkpoint.save_ms", median(untraced.save_ms), "ms");
  r.set("checkpoint.load_ms", median(untraced.load_ms), "ms");
}

/// Runs one warm-up round, then `round` until `seconds` have passed (at
/// least once). The warm-up round is element 0: its outputs are checked like
/// the others', but its times are not sampled, because the first round of a
/// process pays for cold caches and a heap that has not grown yet. The
/// process's peak resident set is read right after it (into `rss_mib`):
/// later rounds repeat the same allocations and only fragment the heap
/// further, by more the more rounds a fast host fits in.
template <typename Round, typename Fn>
std::vector<Round> run_rounds(double seconds, Fn&& round,
                              double* rss_mib = nullptr) {
  std::vector<Round> rounds;
  rounds.push_back(round());
  if (rss_mib != nullptr) *rss_mib = peak_rss_mib();
  const auto t0 = Clock::now();
  do {
    rounds.push_back(round());
  } while (seconds_since(t0) < seconds);
  return rounds;
}

/// The rounds whose times are sampled: all but the warm-up.
template <typename Round>
std::span<const Round> measured(const std::vector<Round>& rounds) {
  return std::span<const Round>(rounds).subspan(1);
}

/// Spans of the traced rounds and of the ledger; the ledger keeps its own
/// store so the rounds cannot crowd its per-op spans out.
struct Traces {
  Tracer rounds{100000};
  Tracer ledger{600000};

  void write(const Options& opt) const {
    if (opt.spans_out.empty()) return;
    rounds.write(opt.spans_out, false);
    ledger.write(opt.spans_out, true);
  }
};

// =========================================================================
// lookup_routed
// =========================================================================

struct RoutedInputs {
  core::ServiceConfig service;
  std::vector<Key> keys;
  std::vector<std::vector<Entry>> initial;
  std::vector<Op> lookups;
};

RoutedInputs make_routed_inputs(std::uint64_t seed) {
  workload::ProductionWorkloadConfig cfg;
  cfg.num_keys = kRoutedKeys;
  cfg.entries_per_key = kEntriesPerKey;
  cfg.num_servers = kServers;
  cfg.zipf_theta = kTheta;
  cfg.scramble = true;
  cfg.offered_load = 1.0;
  cfg.target_answer_size = kTarget;
  cfg.num_events = kRoutedLookups;
  cfg.read_fraction = 1.0;
  cfg.seed = seed;
  workload::ProductionWorkload wl = workload::generate_production_workload(cfg);
  RoutedInputs in;
  in.service = mixed_service(kRoutedKeys, seed);
  // Names of 24-64 bytes, longer than the short-string buffer.
  in.keys = catalogue_names(wl, "catalogue/", 24, 40, seed);
  in.initial = std::move(wl.initial_entries);
  for (const auto& ev : wl.events) in.lookups.push_back(to_op(ev));
  return in;
}

struct RoutedRound {
  double setup_s = 0.0;
  std::vector<double> batch_us;
  double save_ms = 0.0;
  double load_ms = 0.0;
  metrics::ShardLookupCounters lookups;
  net::TransportStats transport;
  std::optional<std::uint64_t> snapshot_hash;
  std::uint64_t queue_peak = 0;
  double shard_skew = 0.0;
};

/// One round: build and fill a runtime and replay the lookups in batches.
/// The first round of a run, and every round of a traced run (which reports
/// the checkpoint per layer), then saves the final state and restores it
/// into a fresh runtime; the first round also checks the restored runtime
/// (the caller compares every round's snapshot bytes with the first's).
RoutedRound routed_round(const RoutedInputs& in, const Options& opt,
                         Tracer* tr, bool first) {
  RoutedRound r;
  sim::ShardedRuntimeConfig rc;
  rc.shards = kShards;
  rc.service = in.service;

  const auto s0 = Clock::now();
  auto rt = std::make_unique<sim::ShardedRuntime>(rc);
  {
    ScopedSpan span(tr, "runtime.setup");
    for (std::size_t k = 0; k < in.keys.size(); ++k) {
      rt->place(in.keys[k], in.initial[k]);
    }
    rt->drain();
  }
  r.setup_s = seconds_since(s0);

  const std::vector<Op>& ops = in.lookups;
  for (std::size_t i = 0; i < ops.size();) {
    const auto b0 = Clock::now();
    {
      ScopedSpan batch(tr, "runtime.batch", i);
      for (const std::size_t end = std::min(ops.size(), i + kBatch); i < end;
           ++i) {
        ScopedSpan span(tr, "runtime.submit", i, batch.handle());
        rt->lookup(in.keys[ops[i].key], kTarget);
      }
      ScopedSpan drain(tr, "runtime.drain", i, batch.handle());
      rt->drain();
    }
    r.batch_us.push_back(seconds_since(b0) * 1e6);
  }

  r.lookups = rt->lookup_totals();
  r.transport = rt->total_transport();
  std::uint64_t max_ops = 0;
  std::uint64_t sum_ops = 0;
  for (std::size_t s = 0; s < rt->shards(); ++s) {
    r.queue_peak = std::max(r.queue_peak, rt->shard_queue_peak(s));
    max_ops = std::max(max_ops, rt->shard_ops(s));
    sum_ops += rt->shard_ops(s);
  }
  r.shard_skew = static_cast<double>(max_ops) * static_cast<double>(kShards) /
                 static_cast<double>(sum_ops);
  check(opt, "shards_consistent", rt->shards_consistent());
  if (!first && !opt.trace) return r;

  // Checkpoint: save the final state, restore it into a fresh runtime.
  std::vector<std::uint8_t> snap;
  {
    const auto c0 = Clock::now();
    ScopedSpan span(tr, "checkpoint.save");
    snap = rt->save_snapshot();
    r.save_ms = seconds_since(c0) * 1e3;
  }
  r.snapshot_hash = fnv(snap);
  rt.reset();
  const auto c0 = Clock::now();
  std::optional<std::string> err;
  auto restored = std::make_unique<sim::ShardedRuntime>(rc);
  {
    ScopedSpan span(tr, "checkpoint.load");
    err = restored->load_snapshot(snap);
  }
  r.load_ms = seconds_since(c0) * 1e3;
  check(opt, "checkpoint_loads", !err.has_value());
  if (first) {
    check(opt, "checkpoint_resave_identical",
          restored->save_snapshot() == snap);
    check(opt, "restored_shards_consistent", restored->shards_consistent());
  }
  return r;
}

/// The sequential oracle: the same lookups, in the same order, on one plain
/// PartialLookupService.
struct Sequential {
  metrics::ShardLookupCounters lookups;
  net::TransportStats transport;
};

Sequential sequential_replay(const RoutedInputs& in) {
  Sequential out;
  core::PartialLookupService svc(in.service);
  for (std::size_t k = 0; k < in.keys.size(); ++k) {
    svc.place(in.keys[k], in.initial[k]);
  }
  for (const Op& op : in.lookups) {
    const core::LookupResult res = svc.partial_lookup(in.keys[op.key], kTarget);
    metrics::ShardLookupCounters d;
    d.lookups = 1;
    d.satisfied = res.satisfied ? 1 : 0;
    d.servers_contacted = res.servers_contacted;
    d.entries_returned = res.entries.size();
    out.lookups.merge(d);
  }
  out.transport = svc.total_transport();
  return out;
}

}  // namespace

Result run_lookup_routed(const Options& opt) {
  const RoutedInputs in = make_routed_inputs(opt.seed);
  LedgerInput ledger{in.service, in.keys, in.initial,
                     ledger_prefix(in.lookups), kTarget};
  Result r;
  if (opt.mode == "allocs") {
    run_ledger(ledger, opt, r, nullptr);
    return r;
  }

  bool started = false;
  const auto round = [&](Tracer* tr) {
    const bool first = !started;
    started = true;
    return routed_round(in, opt, tr, first);
  };
  std::vector<RoutedRound> rounds;
  std::vector<RoutedRound> traced;
  Traces traces;
  double rss = 0.0;
  if (opt.trace) {
    rounds = run_rounds<RoutedRound>(opt.seconds / 2,
                                     [&] { return round(nullptr); });
    traced = run_rounds<RoutedRound>(opt.seconds / 2,
                                     [&] { return round(&traces.rounds); });
  } else {
    rounds = run_rounds<RoutedRound>(
        opt.seconds, [&] { return round(nullptr); }, &rss);
  }

  // Checks: every round equals the first, and the first equals the oracle.
  const RoutedRound& first = rounds.front();
  std::vector<const RoutedRound*> all;
  for (const auto& x : rounds) all.push_back(&x);
  for (const auto& x : traced) all.push_back(&x);
  for (const RoutedRound* x : all) {
    check(opt, "rounds_identical",
          x->lookups == first.lookups && x->transport == first.transport &&
              (!x->snapshot_hash || x->snapshot_hash == first.snapshot_hash));
  }
  check(opt, "transport_conserved", first.transport.conservation_holds());
  check(opt, "every_lookup_tallied",
        first.lookups.lookups == in.lookups.size());
  const Sequential seq = sequential_replay(in);
  check(opt, "lookups_match_sequential", first.lookups == seq.lookups);
  check(opt, "transport_matches_sequential", first.transport == seq.transport);

  // Batches run one after another, so a round's lookups take the sum of its
  // batch times.
  const auto timings = [&](const std::vector<RoutedRound>& of) {
    Timings t;
    t.ops_per_round = static_cast<double>(in.lookups.size());
    for (const auto& x : measured(of)) {
      t.add_round(sum(x.batch_us) / 1e6, x.batch_us);
      t.setup_s.push_back(x.setup_s);
      if (x.snapshot_hash) {
        t.save_ms.push_back(x.save_ms);
        t.load_ms.push_back(x.load_ms);
      }
    }
    return t;
  };
  const Timings untraced = timings(rounds);
  r.attempted = in.lookups.size() * rounds.size();
  if (!opt.trace) {
    set_e2e(r, untraced,
            static_cast<double>(first.lookups.satisfied) /
                static_cast<double>(first.lookups.lookups),
            rss);
  }
  r.note("rounds " + std::to_string(rounds.size()) + ", lookups per round " +
         std::to_string(in.lookups.size()) + ", batches per round " +
         std::to_string(first.batch_us.size()));
  if (!opt.trace) return r;

  // Traced run: runtime spans from the traced rounds, then the ledger.
  const Tracer& tracer = traces.rounds;
  std::uint64_t queue_peak = 0;
  for (const auto& x : traced) queue_peak = std::max(queue_peak, x.queue_peak);
  run_ledger(ledger, opt, r, &traces.ledger);
  r.set("runtime.submit_ns",
        tracer.total_ns("runtime.submit") /
            static_cast<double>(tracer.count("runtime.submit")),
        "ns");
  r.set("runtime.drain_wait_us",
        tracer.total_ns("runtime.drain") / 1e3 /
            static_cast<double>(tracer.count("runtime.drain")),
        "us");
  r.set("runtime.queue_peak", static_cast<double>(queue_peak), "count");
  r.set("runtime.shard_skew", first.shard_skew, "ratio");
  set_rounds(r, untraced, timings(traced));
  r.note("runtime.* above come from the traced S = 2 rounds; the ledger's "
         "S = 1 replay gives runtime.routed_ns_per_op");
  traces.write(opt);
  return r;
}

namespace {

// =========================================================================
// saturation_lossy
// =========================================================================

core::ServiceConfig lossy_service(std::uint64_t seed) {
  core::ServiceConfig cfg = mixed_service(kSatKeys, seed);
  cfg.link.drop_probability = 0.02;
  cfg.link.duplicate_probability = 0.01;
  cfg.retry.max_attempts = 3;
  return cfg;
}

workload::ProductionWorkloadConfig sat_stream(double offered,
                                              std::size_t events,
                                              std::uint64_t seed) {
  workload::ProductionWorkloadConfig cfg;
  cfg.num_keys = kSatKeys;
  cfg.entries_per_key = kEntriesPerKey;
  cfg.num_servers = kServers;
  cfg.zipf_theta = kTheta;
  cfg.scramble = true;
  cfg.offered_load = offered;
  cfg.read_fraction = 0.9;
  cfg.target_answer_size = kTarget;
  cfg.num_events = events;
  cfg.seed = seed;
  // Many short crowds, bursts and partitions per stream rather than a few
  // long ones, so that the outcome shares vary little from seed to seed.
  const double horizon = static_cast<double>(events) / offered;
  cfg.flash_crowd.period = horizon / 16.0;
  cfg.flash_crowd.duration = horizon / 32.0;
  cfg.flash_crowd.hot_keys = kSatHotKeys;
  cfg.flash_crowd.hot_fraction = 0.9;
  cfg.failures.mean_interval = horizon / 16.0;
  cfg.failures.group_size = 2;
  cfg.failures.downtime = horizon / 160.0;
  cfg.partitions.mean_interval = horizon / 12.0;
  cfg.partitions.duration = horizon / 200.0;
  return cfg;
}

struct SatInputs {
  core::ServiceConfig service;
  workload::ProductionWorkload wl;
  workload::SaturationConfig engine;
  double capacity = 0.0;
};

/// Light-load calibration, as bench_saturation does it: the busiest
/// server's messages per client event set the saturation rate, the mean
/// bill sets a deadline light-load lookups meet comfortably.
SatInputs make_sat_inputs(std::uint64_t seed) {
  SatInputs in;
  in.service = lossy_service(seed);
  // Short names (within the short-string buffer), families by popularity.
  const auto generate = [seed](const workload::ProductionWorkloadConfig& cfg) {
    workload::ProductionWorkload wl =
        workload::generate_production_workload(cfg);
    wl.keys = catalogue_names(wl, "key/", 0, 0, seed);
    return wl;
  };
  const auto cal_wl = generate(sat_stream(1.0, 20000, seed + 1));
  core::PartialLookupService svc(in.service);
  workload::SaturationEngine cal(svc, cal_wl, {.service_time = 1.0});
  const auto stats = cal.run();
  const auto& per_server = svc.total_transport().per_server_processed;
  std::uint64_t busiest = 0;
  std::uint64_t total = 0;
  for (const auto p : per_server) {
    busiest = std::max(busiest, p);
    total += p;
  }
  const double events =
      static_cast<double>(stats.lookups + stats.adds + stats.deletes);
  in.capacity = events / static_cast<double>(busiest);
  const double deadline = 8.0 * static_cast<double>(total) / events;
  in.wl = generate(sat_stream(kSatLoad * in.capacity, kSatEvents, seed));
  in.engine.service_time = 1.0;
  in.engine.deadline = deadline;
  in.engine.coalesce = true;
  in.engine.admit_backlog_limit = deadline / 2.0;
  return in;
}

struct SatRound {
  double setup_s = 0.0;
  double run_s = 0.0;
  double save_ms = 0.0;
  double load_ms = 0.0;
  workload::SaturationStats stats;
  net::TransportStats transport;
  std::optional<std::uint64_t> snapshot_hash;
};

bool same_outcome(const workload::SaturationStats& a,
                  const workload::SaturationStats& b) {
  return a.lookups == b.lookups && a.executed == b.executed &&
         a.coalesced == b.coalesced && a.rejected == b.rejected &&
         a.satisfied == b.satisfied && a.satisfied_late == b.satisfied_late &&
         a.unsatisfied == b.unsatisfied && a.adds == b.adds &&
         a.deletes == b.deletes && a.per_key_satisfied == b.per_key_satisfied;
}

/// One engine run on a fresh service. Set-up (build a service and place the
/// catalogue, as the engine does at the start of its run, inside the timed
/// call) is timed on its own first. As in the routed workloads, the first
/// round and every traced round then checkpoint the service.
SatRound sat_round(const SatInputs& in, const Options& opt, Tracer* tr,
                   bool first) {
  SatRound r;
  const auto s0 = Clock::now();
  {
    core::PartialLookupService placed(in.service);
    for (std::size_t k = 0; k < in.wl.keys.size(); ++k) {
      placed.place(in.wl.keys[k], in.wl.initial_entries[k]);
    }
    r.setup_s = seconds_since(s0);
  }
  auto svc = std::make_unique<core::PartialLookupService>(in.service);
  {
    workload::SaturationEngine engine(*svc, in.wl, in.engine);
    const auto t0 = Clock::now();
    ScopedSpan span(tr, "workload.engine.run");
    r.stats = engine.run();
    r.run_s = seconds_since(t0);
  }
  r.transport = svc->total_transport();
  if (!first && !opt.trace) return r;

  std::vector<std::uint8_t> snap;
  {
    const auto c0 = Clock::now();
    ScopedSpan span(tr, "checkpoint.save");
    snap = wire::save_service(*svc);
    r.save_ms = seconds_since(c0) * 1e3;
  }
  r.snapshot_hash = fnv(snap);
  svc.reset();
  const auto c0 = Clock::now();
  std::optional<std::string> err;
  auto restored = std::make_unique<core::PartialLookupService>(in.service);
  {
    ScopedSpan span(tr, "checkpoint.load");
    err = wire::load_service(*restored, snap);
  }
  r.load_ms = seconds_since(c0) * 1e3;
  check(opt, "checkpoint_loads", !err.has_value());
  if (first) {
    check(opt, "checkpoint_resave_identical",
          wire::save_service(*restored) == snap);
  }
  return r;
}

}  // namespace

Result run_saturation_lossy(const Options& opt) {
  const SatInputs in = make_sat_inputs(opt.seed);
  LedgerInput ledger{in.service, in.wl.keys, in.wl.initial_entries, {},
                     kTarget};
  {
    std::vector<Op> ops;
    for (const auto& ev : in.wl.events) ops.push_back(to_op(ev));
    ledger.ops = ledger_prefix(ops);
  }
  Result r;
  if (opt.mode == "allocs") {
    run_ledger(ledger, opt, r, nullptr);
    return r;
  }

  bool started = false;
  const auto round = [&](Tracer* tr) {
    const bool first = !started;
    started = true;
    return sat_round(in, opt, tr, first);
  };

  std::vector<SatRound> rounds;
  std::vector<SatRound> traced;
  Traces traces;
  double rss = 0.0;
  if (opt.trace) {
    rounds = run_rounds<SatRound>(opt.seconds / 2,
                                  [&] { return round(nullptr); });
    traced = run_rounds<SatRound>(opt.seconds / 2,
                                  [&] { return round(&traces.rounds); });
  } else {
    rounds = run_rounds<SatRound>(
        opt.seconds, [&] { return round(nullptr); }, &rss);
  }

  const SatRound& first = rounds.front();
  const auto& st = first.stats;
  check(opt, "lookups_decompose",
        st.lookups == st.executed + st.coalesced + st.rejected);
  check(opt, "outcomes_decompose",
        st.satisfied + st.satisfied_late + st.unsatisfied + st.rejected ==
            st.lookups);
  check(opt, "transport_conserved", first.transport.conservation_holds());
  std::vector<const SatRound*> all;
  for (const auto& x : rounds) all.push_back(&x);
  for (const auto& x : traced) all.push_back(&x);
  for (const SatRound* x : all) {
    check(opt, "rounds_identical",
          same_outcome(x->stats, st) && x->transport == first.transport &&
              (!x->snapshot_hash || x->snapshot_hash == first.snapshot_hash));
  }

  const std::uint64_t events_per_run = st.lookups + st.adds + st.deletes;
  // One engine run is a round's only batch. A run has too few rounds for a
  // p99 with ten samples beyond it (and the slowest runs are the ones other
  // tenants slowed), so both batch percentiles report the fastest run, as
  // ops_per_s does.
  const auto timings = [&](const std::vector<SatRound>& of) {
    Timings t;
    t.ops_per_round = static_cast<double>(events_per_run);
    for (const auto& x : measured(of)) {
      t.add_round(x.run_s, {});
      t.setup_s.push_back(x.setup_s);
      if (x.snapshot_hash) {
        t.save_ms.push_back(x.save_ms);
        t.load_ms.push_back(x.load_ms);
      }
    }
    t.batch_us = {t.least_busy_s() * 1e6};
    return t;
  };
  const Timings untraced = timings(rounds);
  r.attempted = events_per_run * rounds.size();
  const double lookups = static_cast<double>(st.lookups);
  if (!opt.trace) {
    set_e2e(r, untraced, static_cast<double>(st.satisfied) / lookups, rss);
    // The traced run's ledger runs the same repair passes and check.
    (void)run_repair_ledger(ledger, opt, nullptr);
  }
  r.note("rounds " + std::to_string(rounds.size()) + ", client events per "
         "round " + std::to_string(events_per_run) + ", offered load " +
         std::to_string(kSatLoad) + " x calibrated capacity " +
         std::to_string(in.capacity));
  r.note("lookups " + std::to_string(st.lookups) + ": executed " +
         std::to_string(st.executed) + ", coalesced " +
         std::to_string(st.coalesced) + ", rejected " +
         std::to_string(st.rejected) + "; satisfied on time " +
         std::to_string(st.satisfied) + ", late " +
         std::to_string(st.satisfied_late) + ", unsatisfied " +
         std::to_string(st.unsatisfied));
  if (!opt.trace) return r;

  run_ledger(ledger, opt, r, &traces.ledger);
  r.set("workload.coalesced_share", static_cast<double>(st.coalesced) / lookups,
        "fraction");
  r.set("workload.rejected_share", static_cast<double>(st.rejected) / lookups,
        "fraction");
  set_rounds(r, untraced, timings(traced));
  traces.write(opt);
  return r;
}

// =========================================================================
// paper_dynamic
// =========================================================================

namespace {

struct PaperInputs {
  std::vector<workload::GeneratedWorkload> streams;
};

core::StrategyConfig paper_config(std::size_t trial, std::uint64_t seed) {
  core::StrategyConfig cfg = family_config(trial % 6, 20, 2);
  if (cfg.kind == core::StrategyKind::kRandomServer) cfg.param = 20;
  cfg.seed = sim::derive_trial_seed(seed, trial);
  return cfg;
}

/// The §6.1 update streams, one per trial.
PaperInputs make_paper_inputs(std::uint64_t seed) {
  PaperInputs in;
  for (std::size_t i = 0; i < kPaperTrials; ++i) {
    workload::WorkloadConfig wc;
    wc.steady_state_entries = kPaperEntries;
    wc.lifetime = "exp";
    wc.num_updates = kPaperUpdates;
    wc.seed = sim::derive_trial_seed(seed + 1, i);
    in.streams.push_back(workload::generate_workload(wc));
  }
  return in;
}

struct TrialOut {
  std::uint64_t events = 0;
  std::uint64_t probes = 0;
  std::uint64_t satisfiable = 0;
  std::uint64_t stored = 0;
  net::TransportStats transport;
  double busy_s = 0.0;

  bool same(const TrialOut& o) const {
    return events == o.events && probes == o.probes &&
           satisfiable == o.satisfiable && stored == o.stored &&
           transport == o.transport;
  }
};

TrialOut paper_trial(const PaperInputs& in, std::size_t i, std::uint64_t seed,
                     Tracer* tr) {
  TrialOut out;
  const auto t0 = Clock::now();
  auto strategy =
      core::make_strategy(paper_config(i, seed), kPaperServers);
  workload::Replayer replayer(*strategy, in.streams[i]);
  std::int64_t parent = -1;
  replayer.set_observer([&](const workload::UpdateEvent&, std::size_t idx,
                            SimTime) {
    ScopedSpan obs(tr, "workload.replay.observer", idx, parent);
    bool ok = false;
    {
      ScopedSpan sat(tr, "metrics.lookup_satisfiable", idx, obs.handle());
      ok = metrics::lookup_satisfiable(*strategy, kPaperTarget);
    }
    ++out.probes;
    out.satisfiable += ok ? 1 : 0;
  });
  {
    ScopedSpan run(tr, "workload.replay.run", i);
    parent = run.handle();
    const auto res = replayer.run();
    out.events = res.adds_applied + res.deletes_applied;
  }
  out.busy_s = seconds_since(t0);
  out.transport = strategy->network().stats();
  out.stored = strategy->storage_cost();
  return out;
}

struct PaperRound {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<TrialOut> trials;
  double save_ms = 0.0;
  double load_ms = 0.0;
};

/// Saves every trial's final strategy and restores each into a fresh
/// standalone strategy; one sample per round.
void paper_checkpoint(
    const std::vector<std::unique_ptr<core::Strategy>>& finals,
    std::uint64_t seed, const Options& opt, Tracer* tr, PaperRound& round) {
  std::vector<std::vector<std::uint8_t>> snaps(finals.size());
  {
    const auto s0 = Clock::now();
    ScopedSpan span(tr, "checkpoint.save");
    for (std::size_t t = 0; t < finals.size(); ++t) {
      snaps[t] = wire::save_strategy(*finals[t]);
    }
    round.save_ms = seconds_since(s0) * 1e3;
  }
  std::vector<std::unique_ptr<core::Strategy>> restored;
  std::vector<std::optional<std::string>> errs;
  {
    const auto l0 = Clock::now();
    ScopedSpan span(tr, "checkpoint.load");
    for (std::size_t t = 0; t < finals.size(); ++t) {
      restored.push_back(
          core::make_strategy(paper_config(t, seed), kPaperServers));
      errs.push_back(wire::load_strategy(*restored.back(), snaps[t]));
    }
    round.load_ms = seconds_since(l0) * 1e3;
  }
  for (std::size_t t = 0; t < finals.size(); ++t) {
    check(opt, "checkpoint_loads", !errs[t].has_value());
    check(opt, "checkpoint_resave_identical",
          wire::save_strategy(*restored[t]) == snaps[t]);
  }
}

PaperRound paper_round(const PaperInputs& in, std::uint64_t seed,
                       std::size_t jobs, Tracer* tr) {
  PaperRound r;
  r.trials.resize(kPaperTrials);
  std::vector<Tracer> tracers(tr ? kPaperTrials : 0, Tracer(4096));
  const sim::TrialRunner runner(sim::TrialRunnerConfig{.jobs = jobs});
  const auto t0 = Clock::now();
  runner.run_indexed(kPaperTrials, seed,
                     [&](std::size_t i, std::uint64_t) {
                       r.trials[i] = paper_trial(in, i, seed,
                                                 tr ? &tracers[i] : nullptr);
                     });
  r.wall_s = seconds_since(t0);
  for (const Tracer& t : tracers) tr->absorb(t);
  return r;
}

/// The same §6 op stream as a six-key service stream (one key per family):
/// each update, then the probe as a partial lookup with t = 15.
LedgerInput paper_ledger(const PaperInputs& in, std::uint64_t seed) {
  LedgerInput L;
  L.config.num_servers = kPaperServers;
  L.config.expected_keys = 6;
  L.config.seed = seed;
  L.config.strategy_policy =
      [](const Key& key) -> std::optional<core::StrategyConfig> {
    core::StrategyConfig cfg =
        family_config(static_cast<std::size_t>(key.back() - '0'), 20, 2);
    if (cfg.kind == core::StrategyKind::kRandomServer) cfg.param = 20;
    return cfg;
  };
  L.t = kPaperTarget;
  const std::size_t per_family = kLedgerClientOps / 12;
  for (std::size_t f = 0; f < 6; ++f) {
    L.keys.push_back("paper/family/" + std::to_string(f));
    L.initial.push_back(in.streams[f].initial);
    const auto& events = in.streams[f].events;
    for (std::size_t e = 0; e < events.size() && e < per_family; ++e) {
      Op up;
      up.kind = events[e].kind == workload::UpdateKind::kAdd ? Op::Kind::kAdd
                                                             : Op::Kind::kErase;
      up.key = static_cast<std::uint32_t>(f);
      up.entry = events[e].entry;
      up.time = events[e].time;
      L.ops.push_back(up);
      Op probe = up;
      probe.kind = Op::Kind::kLookup;
      L.ops.push_back(probe);
    }
  }
  return L;
}

}  // namespace

Result run_paper_dynamic(const Options& opt) {
  // Set-up: generate the update streams and build the standalone
  // strategies the trials start from. Timed once more in every round.
  const auto setup = [&] {
    PaperInputs fresh = make_paper_inputs(opt.seed);
    std::vector<std::unique_ptr<core::Strategy>> built;
    for (std::size_t t = 0; t < kPaperTrials; ++t) {
      built.push_back(
          core::make_strategy(paper_config(t, opt.seed), kPaperServers));
    }
    return fresh;
  };
  const PaperInputs in = setup();
  Result r;
  if (opt.mode == "allocs") {
    run_ledger(paper_ledger(in, opt.seed), opt, r, nullptr);
    return r;
  }

  // The final state of every trial, for the per-round checkpoint sample.
  std::vector<std::unique_ptr<core::Strategy>> finals;
  for (std::size_t t = 0; t < kPaperTrials; ++t) {
    finals.push_back(
        core::make_strategy(paper_config(t, opt.seed), kPaperServers));
    workload::Replayer(*finals.back(), in.streams[t]).run();
  }

  std::vector<PaperRound> rounds;
  std::vector<PaperRound> traced;
  Traces traces;
  double rss = 0.0;
  const auto round = [&](Tracer* tr) {
    PaperRound pr = paper_round(in, opt.seed, kPaperJobs, tr);
    paper_checkpoint(finals, opt.seed, opt, tr, pr);
    if (tr == nullptr) {
      const auto t0 = Clock::now();
      (void)setup();
      pr.setup_s = seconds_since(t0);
    }
    return pr;
  };
  if (opt.trace) {
    rounds = run_rounds<PaperRound>(opt.seconds / 2,
                                    [&] { return round(nullptr); });
    traced = run_rounds<PaperRound>(opt.seconds / 2,
                                    [&] { return round(&traces.rounds); });
  } else {
    rounds = run_rounds<PaperRound>(
        opt.seconds, [&] { return round(nullptr); }, &rss);
  }

  const PaperRound& first = rounds.front();
  for (const TrialOut& t : first.trials) {
    check(opt, "trial_transport_conserved", t.transport.conservation_holds());
  }
  std::vector<const PaperRound*> all;
  for (const auto& x : rounds) all.push_back(&x);
  for (const auto& x : traced) all.push_back(&x);
  for (const PaperRound* x : all) {
    for (std::size_t i = 0; i < kPaperTrials; ++i) {
      check(opt, "rounds_identical", x->trials[i].same(first.trials[i]));
    }
  }
  const PaperRound one_job = paper_round(in, opt.seed, 1, nullptr);
  for (std::size_t i = 0; i < kPaperTrials; ++i) {
    check(opt, "jobs_invariant", one_job.trials[i].same(first.trials[i]));
  }

  // One trial is one batch; a round's ops take the fan-out's wall time.
  std::uint64_t round_events = 0;
  for (const TrialOut& t : first.trials) round_events += t.events;
  const auto timings = [&](const std::vector<PaperRound>& of) {
    Timings t;
    t.ops_per_round = static_cast<double>(round_events);
    for (const auto& x : measured(of)) {
      std::vector<double> trial_us;
      for (const TrialOut& trial : x.trials) {
        trial_us.push_back(trial.busy_s * 1e6);
      }
      t.add_round(x.wall_s, trial_us);
      t.setup_s.push_back(x.setup_s);
      t.save_ms.push_back(x.save_ms);
      t.load_ms.push_back(x.load_ms);
    }
    return t;
  };
  const Timings untraced = timings(rounds);
  std::uint64_t probes = 0, satisfiable = 0;
  for (const TrialOut& t : first.trials) {
    probes += t.probes;
    satisfiable += t.satisfiable;
  }
  r.attempted = round_events * rounds.size();
  if (!opt.trace) {
    set_e2e(r, untraced,
            static_cast<double>(satisfiable) / static_cast<double>(probes),
            rss);
  }
  r.note("rounds " + std::to_string(rounds.size()) + " of " +
         std::to_string(kPaperTrials) + " trials x " +
         std::to_string(kPaperUpdates) + " updates at " +
         std::to_string(kPaperJobs) + " jobs");
  if (!opt.trace) return r;

  const Tracer& tracer = traces.rounds;
  double twall = 0.0, tbusy = 0.0;
  for (const auto& x : traced) {
    twall += x.wall_s;
    for (const TrialOut& t : x.trials) tbusy += t.busy_s;
  }
  const double tevents =
      static_cast<double>(round_events) * static_cast<double>(traced.size());
  run_ledger(paper_ledger(in, opt.seed), opt, r, &traces.ledger);
  r.set("sim.trial_busy_share",
        tbusy / (static_cast<double>(kPaperJobs) * twall), "fraction");
  set_rounds(r, untraced, timings(traced));
  const double replay_ns = tracer.total_ns("workload.replay.run") -
                           tracer.total_ns("workload.replay.observer");
  r.note("workload.replay_ns_per_event (Replayer::run minus its observer "
         "spans): " +
         std::to_string(replay_ns / tevents));
  r.note("metrics.lookup_satisfiable in the traced trials: " +
         std::to_string(tracer.total_ns("metrics.lookup_satisfiable") /
                        static_cast<double>(
                            tracer.count("metrics.lookup_satisfiable"))) +
         " ns per probe");
  traces.write(opt);
  return r;
}

}  // namespace perfbench
