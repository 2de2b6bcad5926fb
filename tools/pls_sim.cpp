// pls_sim — run a configurable partial-lookup experiment from the command
// line and print the full §4 metric panel plus dynamic statistics.
//
//   $ plsim --strategy round --param 2 --servers 10 --entries 100
//           --target 15 --updates 5000 --lifetime exp --mttf 900 --mttr 100
//   (one command line; wrapped here for width)
//
// Flags (all optional):
//   --strategy NAME   full | fixed | randomserver | round | hash | multiprobe
//   --param P         x or y for the chosen scheme
//   --keys K          K > 0 switches to shared-service mode: K keys
//                     multiplexed on ONE cluster through
//                     PartialLookupService (h entries per key, lookups
//                     round-robin across keys, per-key transport
//                     conservation check). 0 = classic single-key run.
//   --servers N       cluster size
//   --entries H       steady-state entry count
//   --target T        partial_lookup target answer size
//   --lookups L       lookups used for the measured metrics
//   --updates U       churn events to replay (0 = static experiment)
//   --lifetime D      exp | zipf
//   --mttf/--mttr M   enable stochastic failures with these means
//   --loss-prob P     probability a recovering server comes back *empty*
//                     (permanent data loss; requires --mttf/--mttr)
//   --repair-interval R  arm the background RepairProcess with scan
//                     interval R (single-key dynamic mode)
//   --join-at T       add one host at sim time T (single-key dynamic mode)
//   --leave-at T      permanently remove the highest member at sim time T
//   --drop P          per-message link loss probability
//   --dup P           per-delivery link duplication probability
//   --max-attempts A  wire attempts per message (1 = no retries)
//   --timeout T       base retransmission timeout
//   --backoff B       exponential backoff factor
//   --budget N        per-lookup attempt budget (0 = unlimited)
//   --shards S        run the experiment on sim::ShardedRuntime with S
//                     worker shards (thread-per-core; requires --keys >= 1,
//                     S a power of two). Keys are routed to shards by
//                     content hash; aggregate svc/* and net/* metrics are
//                     bit-identical to the sequential run for any S, and
//                     the panel gains per-shard counters plus cross-shard
//                     conservation/consistency checks.
//   --snapshot-at T   write a cluster snapshot after T churn updates
//                     (shared-service mode only: --keys >= 1, --trials 1,
//                     no saturation). The run then CONTINUES normally, so
//                     its output equals a straight run's byte-for-byte.
//   --snapshot-out F  snapshot file path (goes with --snapshot-at)
//   --restore F       restore the cluster from a snapshot written by
//                     --snapshot-out under the IDENTICAL flags, skip the
//                     updates the snapshot already contains, and finish
//                     the run; the final panel/JSON is byte-identical to
//                     the uninterrupted run (gated in perf_check.sh).
//                     Single-key dynamic mode (--keys 0 with failures or
//                     membership events) is not snapshottable: its
//                     FailureInjector timeline lives in the simulator, not
//                     the cluster.
//   --trials N        independent seeded repetitions (default 1)
//   --jobs J          worker threads for the trial fan-out (default:
//                     hardware concurrency; results identical for any J)
//   --json-out PATH   write the aggregate metrics as JSON
//   --seed S          master seed; per-trial seeds derive from it
//
// Saturation mode (open-loop queueing replay; requires --keys >= 1):
//   --offered-load R  client events per simulated second; R > 0 switches
//                     to saturation mode (--lookups becomes the event
//                     count, service time is 1 simulated second/message)
//   --workload W      uniform | zipfian key popularity (default zipfian)
//   --theta T         Zipf exponent (zipfian only; default 0.99)
//   --flash-crowd     periodic hot-key flash crowds on top of the Zipf
//   --read-fraction F lookup share of client events (default 0.95)
//   --deadline D      lookups completing after arrival + D count late
//   --admit B         reject lookups when any host's backlog exceeds B
//   --coalesce        share in-flight same-key lookups server-side
//
// With --trials 1 the classic single-run panel is printed; with more
// trials every metric is reported as mean +- stderr [min, max] over the
// trials. Aggregates depend only on (--trials, --seed), never on --jobs.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>

#include "pls/core/service.hpp"
#include "pls/core/strategy_factory.hpp"
#include "pls/metrics/availability.hpp"
#include "pls/metrics/coverage.hpp"
#include "pls/metrics/fault_tolerance.hpp"
#include "pls/metrics/goodput.hpp"
#include "pls/metrics/lookup_cost.hpp"
#include "pls/metrics/storage.hpp"
#include "pls/metrics/trial_accumulator.hpp"
#include "pls/metrics/unfairness.hpp"
#include "pls/net/failure_injector.hpp"
#include "pls/net/repair.hpp"
#include "pls/runtime/sharded_runtime.hpp"
#include "pls/sim/trial_runner.hpp"
#include "pls/wire/snapshot.hpp"
#include "pls/wire/wire.hpp"
#include "pls/workload/generator.hpp"
#include "pls/workload/replay.hpp"
#include "pls/workload/saturation.hpp"
#include "pls/workload/sharded_saturation.hpp"
#include "pls/workload/workload_options.hpp"

namespace {

struct Options {
  pls::core::StrategyKind strategy = pls::core::StrategyKind::kRoundRobin;
  std::size_t param = 2;
  std::size_t keys = 0;  // 0 = classic single-key mode
  std::size_t servers = 10;
  std::size_t entries = 100;
  std::size_t target = 15;
  std::size_t lookups = 5000;
  std::size_t updates = 0;
  std::string lifetime = "exp";
  double mttf = 0.0;
  double mttr = 0.0;
  double loss_prob = 0.0;
  double repair_interval = 0.0;
  double join_at = 0.0;
  double leave_at = 0.0;
  pls::net::LinkModel link{};
  pls::net::RetryPolicy retry{};
  std::size_t trials = 1;
  std::size_t jobs = 0;
  std::string json_out;
  std::size_t snapshot_at = 0;
  bool snapshot_at_set = false;
  std::string snapshot_out;
  std::string restore_in;
  std::uint64_t seed = 42;
  pls::workload::SaturationCliOptions sat{};
  pls::workload::ShardCliOptions shard{};
  pls::workload::StrategyCliOptions strat{};
};

[[noreturn]] void usage(int code) {
  std::cout << "usage: pls_sim [--strategy full|fixed|randomserver|round|"
               "hash|multiprobe]\n"
               "               [--param P] [--probes R]\n"
               "               [--keys K] [--servers N] [--entries H] "
               "[--target T] [--lookups L]\n"
               "               [--updates U] [--lifetime exp|zipf] "
               "[--mttf M --mttr M]\n"
               "               [--loss-prob P] [--repair-interval R] "
               "[--join-at T] [--leave-at T]\n"
               "               [--drop P] [--dup P] [--max-attempts A] "
               "[--timeout T]\n"
               "               [--backoff B] [--budget N] [--trials N] "
               "[--jobs J]\n"
               "               [--json-out PATH] [--seed S]\n"
               "               [--snapshot-at T --snapshot-out F] "
               "[--restore F]\n"
               "               [--offered-load R] [--workload "
               "uniform|zipfian] [--theta T]\n"
               "               [--flash-crowd] [--read-fraction F] "
               "[--deadline D]\n"
               "               [--admit B] [--coalesce] [--shards S]\n";
  std::exit(code);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << flag << "\n";
        usage(2);
      }
      return argv[++i];
    };
    if (flag == "--strategy") {
      const auto parsed =
          pls::core::parse_strategy_kind(std::string(value()));
      if (!parsed) {
        std::cerr << "unknown strategy\n";
        usage(2);
      }
      opt.strategy = *parsed;
    } else if (flag == "--param") {
      opt.param = std::strtoull(value().data(), nullptr, 10);
    } else if (flag == "--probes") {
      opt.strat.probes = std::strtoull(value().data(), nullptr, 10);
      opt.strat.probes_set = true;
    } else if (flag == "--keys") {
      opt.keys = std::strtoull(value().data(), nullptr, 10);
    } else if (flag == "--servers") {
      opt.servers = std::strtoull(value().data(), nullptr, 10);
    } else if (flag == "--entries") {
      opt.entries = std::strtoull(value().data(), nullptr, 10);
    } else if (flag == "--target") {
      opt.target = std::strtoull(value().data(), nullptr, 10);
    } else if (flag == "--lookups") {
      opt.lookups = std::strtoull(value().data(), nullptr, 10);
    } else if (flag == "--updates") {
      opt.updates = std::strtoull(value().data(), nullptr, 10);
    } else if (flag == "--lifetime") {
      opt.lifetime = std::string(value());
    } else if (flag == "--mttf") {
      opt.mttf = std::strtod(value().data(), nullptr);
    } else if (flag == "--mttr") {
      opt.mttr = std::strtod(value().data(), nullptr);
    } else if (flag == "--loss-prob") {
      opt.loss_prob = std::strtod(value().data(), nullptr);
    } else if (flag == "--repair-interval") {
      opt.repair_interval = std::strtod(value().data(), nullptr);
    } else if (flag == "--join-at") {
      opt.join_at = std::strtod(value().data(), nullptr);
    } else if (flag == "--leave-at") {
      opt.leave_at = std::strtod(value().data(), nullptr);
    } else if (flag == "--drop") {
      opt.link.drop_probability = std::strtod(value().data(), nullptr);
    } else if (flag == "--dup") {
      opt.link.duplicate_probability = std::strtod(value().data(), nullptr);
    } else if (flag == "--max-attempts") {
      opt.retry.max_attempts = static_cast<std::uint32_t>(
          std::strtoul(value().data(), nullptr, 10));
    } else if (flag == "--timeout") {
      opt.retry.base_timeout = std::strtod(value().data(), nullptr);
    } else if (flag == "--backoff") {
      opt.retry.backoff_factor = std::strtod(value().data(), nullptr);
    } else if (flag == "--budget") {
      opt.retry.attempt_budget = static_cast<std::uint32_t>(
          std::strtoul(value().data(), nullptr, 10));
    } else if (flag == "--trials") {
      opt.trials = std::strtoull(value().data(), nullptr, 10);
    } else if (flag == "--jobs") {
      opt.jobs = std::strtoull(value().data(), nullptr, 10);
    } else if (flag == "--json-out") {
      opt.json_out = std::string(value());
    } else if (flag == "--snapshot-at") {
      opt.snapshot_at = std::strtoull(value().data(), nullptr, 10);
      opt.snapshot_at_set = true;
    } else if (flag == "--snapshot-out") {
      opt.snapshot_out = std::string(value());
    } else if (flag == "--restore") {
      opt.restore_in = std::string(value());
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value().data(), nullptr, 10);
    } else if (flag == "--offered-load") {
      opt.sat.offered_load = std::strtod(value().data(), nullptr);
      opt.sat.offered_load_set = true;
    } else if (flag == "--workload") {
      opt.sat.workload = std::string(value());
    } else if (flag == "--theta") {
      opt.sat.theta = std::strtod(value().data(), nullptr);
    } else if (flag == "--flash-crowd") {
      opt.sat.flash_crowd = true;
    } else if (flag == "--read-fraction") {
      opt.sat.read_fraction = std::strtod(value().data(), nullptr);
    } else if (flag == "--deadline") {
      opt.sat.deadline = std::strtod(value().data(), nullptr);
    } else if (flag == "--admit") {
      opt.sat.admit = std::strtod(value().data(), nullptr);
    } else if (flag == "--coalesce") {
      opt.sat.coalesce = true;
    } else if (flag == "--shards") {
      opt.shard.shards = std::strtoull(value().data(), nullptr, 10);
      opt.shard.shards_set = true;
    } else if (flag == "--help" || flag == "-h") {
      usage(0);
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      usage(2);
    }
  }
  if (opt.trials == 0) {
    std::cerr << "--trials must be at least 1\n";
    usage(2);
  }
  if (opt.loss_prob > 0.0 && !(opt.mttf > 0.0 && opt.mttr > 0.0)) {
    std::cerr << "--loss-prob needs --mttf and --mttr (losses happen on "
                 "recovery)\n";
    usage(2);
  }
  if (opt.keys > 0 && (opt.loss_prob > 0.0 || opt.repair_interval > 0.0 ||
                       opt.join_at > 0.0 || opt.leave_at > 0.0)) {
    std::cerr << "membership/repair flags are single-key mode only "
                 "(--keys 0)\n";
    usage(2);
  }
  if (const auto err =
          pls::workload::validate_saturation_options(opt.sat, opt.keys)) {
    std::cerr << *err << "\n";
    usage(2);
  }
  if (const auto err =
          pls::workload::validate_transport_options(opt.link, opt.retry)) {
    std::cerr << *err << "\n";
    usage(2);
  }
  if (const auto err =
          pls::workload::validate_shard_options(opt.shard, opt.keys)) {
    std::cerr << *err << "\n";
    usage(2);
  }
  opt.strat.kind = opt.strategy;
  opt.strat.param = opt.param;
  opt.strat.servers = opt.servers;
  if (const auto err = pls::workload::validate_strategy_options(opt.strat)) {
    std::cerr << *err << "\n";
    usage(2);
  }
  if (opt.snapshot_at_set != !opt.snapshot_out.empty()) {
    std::cerr << "--snapshot-at and --snapshot-out go together\n";
    usage(2);
  }
  if (opt.snapshot_at_set || !opt.restore_in.empty()) {
    if (opt.keys == 0) {
      std::cerr << "snapshot/restore needs shared-service mode (--keys >= "
                   "1); single-key dynamic mode is not snapshottable\n";
      usage(2);
    }
    if (opt.trials != 1) {
      std::cerr << "snapshot/restore needs --trials 1 (a snapshot captures "
                   "one run)\n";
      usage(2);
    }
    if (opt.sat.offered_load > 0.0) {
      std::cerr << "saturation mode is not snapshottable (its open-loop "
                   "event queue lives outside the cluster)\n";
      usage(2);
    }
    if (opt.snapshot_at_set && opt.snapshot_at > opt.updates) {
      std::cerr << "--snapshot-at is past --updates; the snapshot point "
                   "would never be reached\n";
      usage(2);
    }
  }
  return opt;
}

// --- experiment snapshot wrapper (docs/PROTOCOLS.md §"Wire format v1") ---
//
// A plsim snapshot file is the cluster snapshot blob wrapped with the
// experiment's stream position:
//
//   "PLSEXP"  magic (6 bytes)
//   u8        wrapper version (1)
//   u8        mode: 0 = sequential service, 1 = sharded runtime
//   varint    shards (0 when sequential)
//   varint    updates_done — churn updates applied before the snapshot
//   varint    blob length, then the wire::save_service /
//             ShardedRuntime::save_snapshot bytes
constexpr std::string_view kExperimentMagic = "PLSEXP";
constexpr std::uint8_t kExperimentVersion = 1;

void write_experiment_snapshot(const std::string& path, std::uint8_t mode,
                               std::size_t shards, std::size_t updates_done,
                               const std::vector<std::uint8_t>& blob) {
  pls::wire::Writer w;
  w.bytes(std::span(
      reinterpret_cast<const std::uint8_t*>(kExperimentMagic.data()),
      kExperimentMagic.size()));
  w.u8(kExperimentVersion);
  w.u8(mode);
  w.varint(shards);
  w.varint(updates_done);
  w.varint(blob.size());
  w.bytes(blob);
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(w.buffer().data()),
            static_cast<std::streamsize>(w.size()));
  if (!out.good()) {
    std::cerr << "error: could not write snapshot to " << path << "\n";
    std::exit(1);
  }
}

struct ExperimentSnapshot {
  std::uint8_t mode = 0;
  std::size_t shards = 0;
  std::size_t updates_done = 0;
  std::vector<std::uint8_t> blob;
};

ExperimentSnapshot read_experiment_snapshot(const std::string& path,
                                            std::uint8_t expected_mode,
                                            std::size_t expected_shards) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    std::cerr << "error: could not read snapshot file " << path << "\n";
    std::exit(1);
  }
  const std::vector<std::uint8_t> data(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  pls::wire::Reader r(data);
  const auto magic = r.bytes(kExperimentMagic.size());
  if (!std::equal(magic.begin(), magic.end(), kExperimentMagic.begin(),
                  kExperimentMagic.end())) {
    std::cerr << "error: " << path << " is not a plsim snapshot\n";
    std::exit(1);
  }
  if (const auto version = r.u8(); version != kExperimentVersion) {
    std::cerr << "error: snapshot wrapper version "
              << static_cast<int>(version) << " is not supported; this "
              << "build reads version 1\n";
    std::exit(1);
  }
  ExperimentSnapshot snap;
  snap.mode = r.u8();
  snap.shards = static_cast<std::size_t>(r.varint());
  snap.updates_done = static_cast<std::size_t>(r.varint());
  const std::uint64_t blob_len = r.varint();
  const auto blob = r.bytes(static_cast<std::size_t>(blob_len));
  snap.blob.assign(blob.begin(), blob.end());
  if (!r.ok() || !r.at_end()) {
    std::cerr << "error: snapshot file " << path << " is truncated or "
              << "corrupt\n";
    std::exit(1);
  }
  if (snap.mode != expected_mode || snap.shards != expected_shards) {
    std::cerr << "error: snapshot was taken "
              << (snap.mode == 1
                      ? "on a sharded runtime (--shards " +
                            std::to_string(snap.shards) + ")"
                      : std::string("sequentially"))
              << "; rerun with the flags it was written under\n";
    std::exit(1);
  }
  return snap;
}

/// Runs the full experiment once with `seed` and records every panel
/// metric. Pure function of (opt, seed) — the trial fan-out relies on it.
pls::metrics::TrialAccumulator run_one(const Options& opt,
                                       std::uint64_t seed) {
  using namespace pls;
  metrics::TrialAccumulator trial;

  auto failures = net::make_failure_state(opt.servers);
  core::StrategyConfig scfg;
  scfg.kind = opt.strategy;
  scfg.param = opt.param;
  scfg.probes = opt.strat.probes;
  scfg.link = opt.link;
  scfg.retry = opt.retry;
  scfg.seed = seed;
  const auto strategy = core::make_strategy(scfg, opt.servers, failures);

  // --- static placement + §4 metric panel -------------------------------
  std::vector<Entry> entries(opt.entries);
  for (std::size_t i = 0; i < opt.entries; ++i) entries[i] = i + 1;
  strategy->place(entries);

  const auto placement = strategy->placement();
  trial.add("static/storage",
            static_cast<double>(metrics::storage_cost(placement)));
  trial.add("static/storage_imbalance",
            static_cast<double>(metrics::storage_imbalance(placement)));
  trial.add("static/coverage",
            static_cast<double>(metrics::max_coverage(placement)));
  trial.add("static/fault_tolerance",
            static_cast<double>(
                metrics::fault_tolerance(placement, opt.target)));
  const auto cost =
      metrics::measure_lookup_cost(*strategy, opt.target, opt.lookups);
  trial.add("static/lookup_cost", cost.mean_servers);
  trial.add("static/failure_rate", cost.failure_rate);
  trial.add("static/unfairness",
            metrics::instance_unfairness(*strategy, entries, opt.target,
                                         opt.lookups));

  if (opt.updates == 0) return trial;

  // --- dynamic phase ----------------------------------------------------
  workload::WorkloadConfig wc;
  wc.steady_state_entries = opt.entries;
  wc.lifetime = opt.lifetime;
  wc.num_updates = opt.updates;
  wc.seed = seed + 1;
  const auto wl = workload::generate_workload(wc);

  sim::Simulator failure_clock;
  bool clock_used = false;
  std::unique_ptr<net::RepairProcess> repair;
  if (opt.repair_interval > 0.0) {
    repair = std::make_unique<net::RepairProcess>(
        failures, net::RepairProcess::Config{opt.repair_interval});
    repair->add_target(strategy.get());
    repair->arm(failure_clock);
    clock_used = true;
  }
  std::unique_ptr<net::FailureInjector> injector;
  if (opt.mttf > 0.0 && opt.mttr > 0.0) {
    injector = std::make_unique<net::FailureInjector>(
        failures,
        net::FailureInjector::Config{.mttf = opt.mttf,
                                     .mttr = opt.mttr,
                                     .permanent_loss_prob = opt.loss_prob,
                                     .seed = seed + 2});
    if (opt.loss_prob > 0.0) {
      injector->set_wipe_hook([&strategy, &repair, &failure_clock](
                                  ServerId s) {
        strategy->wipe_server(s);
        if (repair) repair->record_wipe(failure_clock.now());
      });
    }
    injector->arm(failure_clock);
    clock_used = true;
  }
  if (opt.join_at > 0.0) {
    failure_clock.schedule_at(opt.join_at,
                              [&strategy] { strategy->add_server(); });
    clock_used = true;
  }
  if (opt.leave_at > 0.0) {
    failure_clock.schedule_at(opt.leave_at, [&strategy] {
      const net::FailureState& fs = strategy->network().failures();
      if (fs.member_count() > 1) {
        strategy->remove_server(fs.member_at(fs.member_count() - 1),
                                net::Loss::kPermanent);
      }
    });
    clock_used = true;
  }

  strategy->network().reset_stats();
  std::unordered_set<Entry> live(wl.initial.begin(), wl.initial.end());
  double unavailable = 0.0, total_time = 0.0;
  workload::Replayer replayer(*strategy, wl);
  replayer.set_observer([&](const workload::UpdateEvent& ev, std::size_t,
                            SimTime gap) {
    if (clock_used) failure_clock.run_until(ev.time);
    if (ev.kind == workload::UpdateKind::kAdd) {
      live.insert(ev.entry);
    } else {
      live.erase(ev.entry);
    }
    total_time += gap;
    if (!metrics::lookup_satisfiable(*strategy, opt.target)) {
      unavailable += gap;
    }
  });
  const auto result = replayer.run();

  trial.add("dyn/adds_applied", static_cast<double>(result.adds_applied));
  trial.add("dyn/deletes_applied",
            static_cast<double>(result.deletes_applied));
  trial.add("dyn/end_time", result.end_time);
  trial.add("dyn/live_entries", static_cast<double>(live.size()));
  trial.add("dyn/stored_distinct",
            static_cast<double>(strategy->placement().distinct_entries()));
  trial.add("dyn/unavailable_percent",
            100.0 * (total_time > 0 ? unavailable / total_time : 0.0));
  trial.add_transport("net/", strategy->network().stats());
  if (injector) {
    trial.add("dyn/failures_injected",
              static_cast<double>(injector->failures_injected()));
    trial.add("dyn/recoveries_injected",
              static_cast<double>(injector->recoveries_injected()));
    trial.add("dyn/wipes_injected",
              static_cast<double>(injector->wipes_injected()));
  }
  if (opt.loss_prob > 0.0 || opt.join_at > 0.0 || opt.leave_at > 0.0) {
    // Permanently lost content: live entries (per the workload ground
    // truth) that no surviving server stores.
    std::unordered_set<Entry> stored;
    for (const auto& s : strategy->placement().servers) {
      stored.insert(s.begin(), s.end());
    }
    std::size_t lost_entries = 0;
    for (Entry v : live) {
      if (!stored.contains(v)) ++lost_entries;
    }
    trial.add("dyn/lost_entries", static_cast<double>(lost_entries));
  }
  if (repair) {
    trial.add("repair/scans", static_cast<double>(repair->scans()));
    trial.add("repair/idle_scans",
              static_cast<double>(repair->idle_scans()));
    trial.add("repair/replicas_created",
              static_cast<double>(repair->replicas_created()));
    trial.add("repair/unrecoverable",
              static_cast<double>(repair->entries_unrecoverable()));
    const auto& rs = strategy->network().repair_stats();
    trial.add_transport("repairnet/", rs);
    // The repair ledger is a full TransportStats overlay with its own
    // conservation law.
    trial.add("repair/conserved", rs.conservation_holds() ? 1.0 : 0.0);
  }
  if (!live.empty()) {
    std::vector<Entry> universe(live.begin(), live.end());
    trial.add("dyn/final_unfairness",
              metrics::instance_unfairness(*strategy, universe, opt.target,
                                           opt.lookups));
  }
  if (opt.link.lossy()) {
    trial.add_outcomes("lookup/",
                       metrics::measure_lookup_outcomes(*strategy, opt.target,
                                                        opt.lookups));
  }
  return trial;
}

/// The shared service every --keys mode runs: the same cluster, strategy,
/// link and retry flags whichever engine drives it.
pls::core::ServiceConfig make_service_config(const Options& opt,
                                             std::uint64_t seed) {
  pls::core::ServiceConfig cfg;
  cfg.num_servers = opt.servers;
  cfg.default_strategy.kind = opt.strategy;
  cfg.default_strategy.param = opt.param;
  cfg.default_strategy.probes = opt.strat.probes;
  cfg.link = opt.link;
  cfg.retry = opt.retry;
  cfg.expected_keys = opt.keys;
  cfg.seed = seed;
  return cfg;
}

/// Appends the sharded-execution extras to a trial: per-shard counters
/// plus the cross-shard checks. Appended AFTER the shared panel so the
/// sequential run's metric set is an exact insertion-order prefix of the
/// sharded run's — the perf_check determinism gate relies on that.
void add_shard_panel(pls::metrics::TrialAccumulator& trial,
                     pls::sim::ShardedRuntime& runtime,
                     const pls::net::TransportStats& total) {
  using namespace pls;
  trial.add("svc/shards", static_cast<double>(runtime.shards()));
  // Replication invariant: every shard replica observed the same
  // membership/failure history (equal epochs, member and up counts).
  trial.add("svc/shard_consistent", runtime.shards_consistent() ? 1.0 : 0.0);
  // Cross-shard conservation: each shard's ledger individually obeys
  // sent + duplicated == processed + dropped, and the per-shard ledgers
  // fold to the cluster-wide totals reported above.
  net::TransportStats folded;
  bool each_conserved = true;
  for (std::size_t s = 0; s < runtime.shards(); ++s) {
    const net::TransportStats& st = runtime.shard_transport(s);
    each_conserved = each_conserved && st.conservation_holds();
    folded.merge(st);
    const std::string p = "shard" + std::to_string(s) + "/";
    trial.add(p + "ops", static_cast<double>(runtime.shard_ops(s)));
    trial.add(p + "keys",
              static_cast<double>(runtime.shard_service(s).num_keys()));
    trial.add(p + "lookups",
              static_cast<double>(runtime.shard_lookups(s).lookups));
    trial.add(p + "processed", static_cast<double>(st.processed));
  }
  trial.add("svc/shard_conserved",
            (each_conserved && folded == total) ? 1.0 : 0.0);
}

// --- the two executors ----------------------------------------------------
//
// A --keys run drives one PartialLookupService, or with --shards a
// ShardedRuntime. Both place, add, erase and report keys, storage and
// transport under the same names; these overloads are all that differs.

std::vector<std::uint8_t> save_snapshot(pls::core::PartialLookupService& svc) {
  return pls::wire::save_service(svc);
}
std::vector<std::uint8_t> save_snapshot(pls::sim::ShardedRuntime& runtime) {
  return runtime.save_snapshot();
}

std::optional<std::string> load_snapshot(
    pls::core::PartialLookupService& svc,
    const std::vector<std::uint8_t>& blob) {
  return pls::wire::load_service(svc, blob);
}
std::optional<std::string> load_snapshot(
    pls::sim::ShardedRuntime& runtime, const std::vector<std::uint8_t>& blob) {
  return runtime.load_snapshot(blob);
}

/// Runs L partial lookups round-robin over `keys` and tallies them.
pls::metrics::ShardLookupCounters run_lookups(
    pls::core::PartialLookupService& svc, const std::vector<pls::Key>& keys,
    const Options& opt) {
  pls::metrics::ShardLookupCounters tally;
  for (std::size_t i = 0; i < opt.lookups; ++i) {
    const auto result = svc.partial_lookup(keys[i % opt.keys], opt.target);
    tally.servers_contacted += result.servers_contacted;
    if (result.satisfied) ++tally.satisfied;
  }
  return tally;
}
pls::metrics::ShardLookupCounters run_lookups(
    pls::sim::ShardedRuntime& runtime, const std::vector<pls::Key>& keys,
    const Options& opt) {
  for (std::size_t i = 0; i < opt.lookups; ++i) {
    runtime.lookup(keys[i % opt.keys], opt.target);
  }
  return runtime.lookup_totals();
}

pls::net::TransportStats repair_transport(
    pls::core::PartialLookupService& svc) {
  return svc.cluster().network().repair_stats();
}
pls::net::TransportStats repair_transport(pls::sim::ShardedRuntime& runtime) {
  return runtime.total_repair_transport();
}

pls::workload::SaturationStats run_engine(
    pls::core::PartialLookupService& svc,
    const pls::workload::ProductionWorkload& wl,
    const pls::workload::SaturationConfig& sc) {
  return pls::workload::SaturationEngine(svc, wl, sc).run();
}
/// Each shard replays its key slice of `wl` (S shards model S
/// thread-per-core capacity slices, so queueing observables vary with S).
pls::workload::SaturationStats run_engine(
    pls::sim::ShardedRuntime& runtime,
    const pls::workload::ProductionWorkload& wl,
    const pls::workload::SaturationConfig& sc) {
  return pls::workload::run_sharded_saturation(runtime, wl, sc);
}

/// Builds the executor --shards picks and runs `body` on it. A runtime's
/// trial ends with the per-shard panel, after everything `body` recorded.
template <typename Body>
pls::metrics::TrialAccumulator on_executor(const Options& opt,
                                           std::uint64_t seed, Body body) {
  using namespace pls;
  if (!opt.shard.shards_set) {
    core::PartialLookupService svc(make_service_config(opt, seed));
    return body(svc);
  }
  sim::ShardedRuntimeConfig rcfg;
  rcfg.shards = opt.shard.shards;
  rcfg.service = make_service_config(opt, seed);
  sim::ShardedRuntime runtime(rcfg);
  metrics::TrialAccumulator trial = body(runtime);
  add_shard_panel(trial, runtime, runtime.total_transport());
  return trial;
}

/// Shared-service mode (--keys K): K keys multiplexed on one cluster.
/// Places h entries per key, optionally churns (each update is one
/// balanced add+delete pair, round-robin over keys), runs L partial
/// lookups round-robin over keys, and cross-checks the tenancy
/// conservation law: per-key transport channels merged over all keys must
/// equal the cluster-wide counter set. The svc/* and net/* panel is
/// bit-identical on either executor, for any shard count.
template <typename Executor>
pls::metrics::TrialAccumulator run_service(const Options& opt,
                                           Executor& exec) {
  using namespace pls;
  metrics::TrialAccumulator trial;

  std::vector<Key> keys(opt.keys);
  for (std::size_t k = 0; k < opt.keys; ++k) {
    keys[k] = "key-" + std::to_string(k);
  }

  // Snapshot/restore: the churn loop is the experiment's update stream, so
  // the resumable position is simply the number of updates applied. A
  // restored run skips placement (the snapshot holds the placed state) and
  // the already-applied updates; everything after the snapshot point —
  // remaining churn, then all measured lookups — replays identically, so
  // the final panel matches an uninterrupted run byte-for-byte. The
  // runtime drains to a quiescent barrier before it saves, so
  // "updates_done" is exact there too.
  const std::uint8_t mode = opt.shard.shards_set ? 1 : 0;
  const std::size_t shards = opt.shard.shards_set ? opt.shard.shards : 0;
  std::size_t updates_done = 0;
  if (!opt.restore_in.empty()) {
    const ExperimentSnapshot snap =
        read_experiment_snapshot(opt.restore_in, mode, shards);
    if (const auto err = load_snapshot(exec, snap.blob)) {
      std::cerr << "error: " << *err << "\n";
      std::exit(1);
    }
    updates_done = snap.updates_done;
    if (updates_done > opt.updates ||
        (opt.snapshot_at_set && opt.snapshot_at < updates_done)) {
      std::cerr << "error: snapshot was taken after " << updates_done
                << " updates; rerun with the flags it was written under\n";
      std::exit(1);
    }
  } else {
    std::vector<Entry> entries(opt.entries);
    for (std::size_t k = 0; k < opt.keys; ++k) {
      for (std::size_t i = 0; i < opt.entries; ++i) {
        entries[i] = static_cast<Entry>(opt.entries * k + i + 1);
      }
      exec.place(keys[k], entries);
    }
  }

  const auto maybe_snapshot = [&](std::size_t done) {
    if (!opt.snapshot_at_set || done != opt.snapshot_at) return;
    write_experiment_snapshot(opt.snapshot_out, mode, shards, done,
                              save_snapshot(exec));
  };
  maybe_snapshot(updates_done);
  for (std::size_t u = updates_done; u < opt.updates; ++u) {
    const Key& key = keys[u % opt.keys];
    const Entry v = static_cast<Entry>(1'000'000 + u);
    exec.add(key, v);
    exec.erase(key, v);
    maybe_snapshot(u + 1);
  }

  const metrics::ShardLookupCounters tally = run_lookups(exec, keys, opt);
  trial.add("svc/keys", static_cast<double>(exec.num_keys()));
  trial.add("svc/storage", static_cast<double>(exec.total_storage()));
  trial.add("svc/lookup_cost",
            opt.lookups > 0
                ? static_cast<double>(tally.servers_contacted) /
                      static_cast<double>(opt.lookups)
                : 0.0);
  trial.add("svc/failure_rate",
            opt.lookups > 0
                ? 1.0 - static_cast<double>(tally.satisfied) /
                            static_cast<double>(opt.lookups)
                : 0.0);
  const net::TransportStats transport = exec.total_transport();
  trial.add_transport("net/", transport);

  net::TransportStats per_key_sum;
  for (const auto& key : keys) per_key_sum.merge(exec.key_transport(key));
  trial.add("svc/transport_conserved",
            per_key_sum == transport ? 1.0 : 0.0);
  // The repair attribution overlay obeys the same conservation law as any
  // other channel (trivially, all-zero, until a repair process runs).
  trial.add("svc/repair_conserved",
            repair_transport(exec).conservation_holds() ? 1.0 : 0.0);
  return trial;
}

pls::workload::ProductionWorkloadConfig make_production_config(
    const Options& opt, std::uint64_t seed) {
  using namespace pls;
  workload::ProductionWorkloadConfig wc;
  wc.num_keys = opt.keys;
  wc.entries_per_key = opt.entries;
  wc.num_servers = opt.servers;
  const std::string kind = opt.sat.workload.value_or("zipfian");
  wc.zipf_theta = kind == "uniform" ? 0.0 : opt.sat.theta.value_or(0.99);
  wc.offered_load = opt.sat.offered_load;
  wc.read_fraction = opt.sat.read_fraction.value_or(0.95);
  wc.target_answer_size = opt.target;
  wc.num_events = opt.lookups;
  if (opt.sat.flash_crowd) {
    // ~8 crowd cycles over the expected horizon, active a quarter of each.
    const double horizon =
        static_cast<double>(opt.lookups) / wc.offered_load;
    wc.flash_crowd.period = horizon / 8.0;
    wc.flash_crowd.duration = wc.flash_crowd.period / 4.0;
    wc.flash_crowd.hot_keys = std::max<std::size_t>(1, opt.keys / 16);
    wc.flash_crowd.hot_fraction = 0.9;
  }
  wc.seed = seed;
  return wc;
}

pls::workload::SaturationConfig make_saturation_config(const Options& opt) {
  pls::workload::SaturationConfig sc;
  sc.service_time = 1.0;
  sc.deadline = opt.sat.deadline.value_or(0.0);
  sc.coalesce = opt.sat.coalesce;
  sc.admit_backlog_limit = opt.sat.admit.value_or(0.0);
  return sc;
}

/// Saturation mode (--offered-load > 0): replay a production-shaped
/// workload open-loop through the SaturationEngine and record the overload
/// panel. Pure function of (opt, seed), like the other runners.
template <typename Executor>
pls::metrics::TrialAccumulator run_saturation(const Options& opt,
                                              std::uint64_t seed,
                                              Executor& exec) {
  using namespace pls;
  metrics::TrialAccumulator trial;
  const auto wl = workload::generate_production_workload(
      make_production_config(opt, seed));
  const workload::SaturationStats stats =
      run_engine(exec, wl, make_saturation_config(opt));
  trial.add("sat/lookups", static_cast<double>(stats.lookups));
  trial.add("sat/executed", static_cast<double>(stats.executed));
  trial.add("sat/coalesced", static_cast<double>(stats.coalesced));
  trial.add("sat/rejected", static_cast<double>(stats.rejected));
  trial.add("sat/satisfied", static_cast<double>(stats.satisfied));
  trial.add("sat/satisfied_late",
            static_cast<double>(stats.satisfied_late));
  trial.add("sat/unsatisfied", static_cast<double>(stats.unsatisfied));
  trial.add("sat/adds", static_cast<double>(stats.adds));
  trial.add("sat/deletes", static_cast<double>(stats.deletes));
  trial.add("sat/horizon", stats.horizon);
  trial.add("sat/offered_rate", stats.offered_rate());
  trial.add("sat/goodput", stats.goodput());
  if (!stats.latency.empty()) {
    trial.add("sat/latency_mean", stats.latency.mean());
    trial.add("sat/latency_p50", stats.latency.percentile(50.0));
    trial.add("sat/latency_p99", stats.latency.percentile(99.0));
    trial.add("sat/latency_p999", stats.latency.percentile(99.9));
  }
  trial.add_transport("net/", exec.total_transport());
  return trial;
}

void print_saturation_panel(const Options& opt,
                            const pls::metrics::TrialAccumulator& acc) {
  const auto count = [&acc](const char* metric) {
    return static_cast<long long>(std::llround(acc.mean(metric)));
  };
  std::cout << "saturation replay (open loop, service time 1.0):\n";
  std::cout << "  offered          " << count("sat/lookups")
            << " lookups at " << std::fixed << std::setprecision(3)
            << acc.mean("sat/offered_rate") << "/s over "
            << std::setprecision(1) << acc.mean("sat/horizon")
            << " time units\n" << std::setprecision(3);
  std::cout << "  outcome          " << count("sat/satisfied")
            << " on time, " << count("sat/satisfied_late") << " late, "
            << count("sat/unsatisfied") << " unsatisfied, "
            << count("sat/rejected") << " rejected\n";
  if (opt.sat.coalesce) {
    std::cout << "  coalesced        " << count("sat/coalesced") << " of "
              << count("sat/lookups") << " lookups shared an in-flight "
              << "answer\n";
  }
  std::cout << "  goodput          " << acc.mean("sat/goodput")
            << " on-time satisfied lookups/s\n";
  if (acc.has("sat/latency_p99")) {
    std::cout << "  latency          mean " << acc.mean("sat/latency_mean")
              << ", p50 " << acc.mean("sat/latency_p50") << ", p99 "
              << acc.mean("sat/latency_p99") << ", p999 "
              << acc.mean("sat/latency_p999") << '\n';
  }
  std::cout << "  churn            " << count("sat/adds") << " adds, "
            << count("sat/deletes") << " deletes alongside the lookups\n";
  std::cout << "  messages         " << count("net/processed")
            << " processed, " << count("net/dropped") << " dropped\n";
}

void print_service_panel(const Options& opt,
                         const pls::metrics::TrialAccumulator& acc) {
  const auto count = [&acc](const char* metric) {
    return static_cast<long long>(std::llround(acc.mean(metric)));
  };
  std::cout << "shared service:\n";
  std::cout << "  storage          " << count("svc/storage")
            << " entries total across " << count("svc/keys") << " keys\n";
  std::cout << "  lookup cost      " << std::fixed << std::setprecision(3)
            << acc.mean("svc/lookup_cost") << " servers, failure rate "
            << acc.mean("svc/failure_rate") << '\n';
  std::cout << "  messages         " << count("net/processed")
            << " processed, " << count("net/broadcasts") << " broadcasts, "
            << count("net/dropped") << " dropped\n";
  if (opt.link.lossy()) {
    std::cout << "  link             " << count("net/dropped_link")
              << " lost, " << count("net/duplicated") << " duplicated ("
              << count("net/dup_suppressed") << " suppressed), "
              << count("net/retries") << " retries\n";
  }
  std::cout << "  conservation     per-key channels "
            << (acc.mean("svc/transport_conserved") == 1.0
                    ? "sum to cluster totals (OK)\n"
                    : "DO NOT sum to cluster totals\n");
  if (acc.has("svc/shards")) {
    std::cout << "  shards           " << count("svc/shards")
              << " worker shards, replicas "
              << (acc.mean("svc/shard_consistent") == 1.0 ? "consistent"
                                                          : "INCONSISTENT")
              << ", per-shard ledgers "
              << (acc.mean("svc/shard_conserved") == 1.0
                      ? "conserved and fold to totals (OK)\n"
                      : "BROKEN\n");
  }
}

void print_single_run_panel(const Options& opt,
                            const pls::metrics::TrialAccumulator& acc) {
  using namespace pls;
  // Count metrics are exact in a single run; print them as integers.
  const auto count = [&acc](const char* metric) {
    return static_cast<long long>(std::llround(acc.mean(metric)));
  };
  std::cout << "static placement:\n";
  std::cout << "  storage cost     " << acc.mean("static/storage")
            << " entries (imbalance " << std::fixed << std::setprecision(3)
            << acc.mean("static/storage_imbalance") << ")\n"
            << std::defaultfloat;
  std::cout << "  max coverage     " << acc.mean("static/coverage") << " / "
            << opt.entries << '\n';
  std::cout << "  fault tolerance  " << acc.mean("static/fault_tolerance")
            << " worst-case failures (greedy heuristic, t = " << opt.target
            << ")\n";
  std::cout << "  lookup cost      " << std::fixed << std::setprecision(3)
            << acc.mean("static/lookup_cost") << " servers, failure rate "
            << acc.mean("static/failure_rate") << '\n';
  std::cout << "  unfairness       " << acc.mean("static/unfairness")
            << " (coefficient of variation, 0 = fair)\n";

  if (opt.updates == 0) return;

  std::cout << "\ndynamic phase: " << opt.updates << " updates ("
            << opt.lifetime << " lifetimes)";
  if (acc.has("dyn/failures_injected")) {
    std::cout << ", failures MTTF " << opt.mttf << " / MTTR " << opt.mttr;
  }
  std::cout << "\n";
  std::cout << "  applied          " << count("dyn/adds_applied")
            << " adds, " << count("dyn/deletes_applied")
            << " deletes over " << std::setprecision(0)
            << acc.mean("dyn/end_time") << " time units\n"
            << std::setprecision(3);
  std::cout << "  live entries     " << count("dyn/live_entries")
            << " (stored distinct " << count("dyn/stored_distinct")
            << (acc.has("dyn/failures_injected")
                    ? ", stale copies possible under failures)\n"
                    : ")\n");
  std::cout << "  messages         " << count("net/processed")
            << " processed incl. initial placement ("
            << acc.mean("net/processed") /
                   static_cast<double>(opt.updates)
            << " per update), " << count("net/broadcasts")
            << " broadcasts, " << count("net/dropped") << " dropped\n";
  if (opt.link.lossy()) {
    std::cout << "  link             " << count("net/dropped_link")
              << " lost, " << count("net/dropped_down")
              << " to down servers, " << count("net/duplicated")
              << " duplicated (" << count("net/dup_suppressed")
              << " suppressed), " << count("net/retries") << " retries, "
              << count("net/timeouts") << " timeouts\n";
  }
  std::cout << "  hottest server   " << count("net/max_per_server")
            << " messages (mean "
            << acc.mean("net/processed") /
                   static_cast<double>(opt.servers)
            << ")\n";
  std::cout << "  unavailable      " << acc.mean("dyn/unavailable_percent")
            << "% of execution time for t = " << opt.target << '\n';
  if (acc.has("dyn/failures_injected")) {
    std::cout << "  failures         " << count("dyn/failures_injected")
              << " crashes, " << count("dyn/recoveries_injected")
              << " recoveries";
    if (acc.has("dyn/wipes_injected")) {
      std::cout << ", " << count("dyn/wipes_injected")
                << " came back wiped";
    }
    std::cout << '\n';
  }
  if (acc.has("dyn/lost_entries")) {
    std::cout << "  durability       " << count("dyn/lost_entries")
              << " live entries permanently lost\n";
  }
  if (acc.has("repair/scans")) {
    std::cout << "  repair           " << count("repair/scans") << " scans ("
              << count("repair/idle_scans") << " idle), "
              << count("repair/replicas_created")
              << " replicas re-created over " << count("repairnet/sent")
              << " messages ("
              << (acc.mean("repair/conserved") == 1.0
                      ? "ledger conserved)\n"
                      : "LEDGER NOT CONSERVED)\n");
  }
  if (acc.has("dyn/final_unfairness")) {
    std::cout << "  final unfairness " << acc.mean("dyn/final_unfairness")
              << '\n';
  }
  if (acc.has("lookup/satisfaction_rate")) {
    std::cout << "  satisfaction     "
              << 100.0 * acc.mean("lookup/satisfaction_rate") << "% of "
              << count("lookup/lookups") << " lookups ("
              << count("lookup/degraded") << " degraded, "
              << count("lookup/failed") << " failed)\n";
    std::cout << "  goodput          " << acc.mean("lookup/goodput")
              << " entries per wire message ("
              << count("lookup/retries") << " lookup retries, "
              << count("lookup/timeouts") << " timeouts)\n";
  }
}

void print_aggregate_panel(const pls::metrics::TrialAccumulator& acc) {
  std::cout << std::left << std::setw(28) << "metric" << std::right
            << std::setw(14) << "mean" << std::setw(14) << "stderr"
            << std::setw(14) << "min" << std::setw(14) << "max" << "\n";
  for (const auto& name : acc.metric_names()) {
    const auto s = acc.summary(name);
    std::cout << std::left << std::setw(28) << name << std::right
              << std::fixed << std::setprecision(4) << std::setw(14)
              << s.mean << std::setw(14) << s.stderr_of_mean << std::setw(14)
              << s.min << std::setw(14) << s.max << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pls;
  const Options opt = parse(argc, argv);

  std::cout << "strategy " << core::to_string(opt.strategy) << "-"
            << opt.param << " on " << opt.servers << " servers, h = "
            << opt.entries << ", t = " << opt.target << "\n";
  const bool saturation = opt.sat.offered_load > 0.0;
  if (saturation) {
    std::cout << "saturation mode: "
              << opt.sat.workload.value_or("zipfian") << " popularity, "
              << opt.sat.offered_load << " events/s offered over "
              << opt.keys << " keys"
              << (opt.sat.flash_crowd ? ", flash crowds" : "")
              << (opt.sat.coalesce ? ", coalescing" : "")
              << (opt.sat.admit.value_or(0.0) > 0.0 ? ", admission control"
                                                    : "")
              << "\n";
  } else if (opt.keys > 0) {
    std::cout << "shared service: " << opt.keys
              << " keys multiplexed on one cluster\n";
  }
  if (opt.shard.shards_set) {
    std::cout << "sharded runtime: " << opt.shard.shards
              << " worker shard" << (opt.shard.shards == 1 ? "" : "s")
              << ", keys routed by content hash (aggregates identical to "
                 "the sequential run)\n";
  }
  if (opt.link.lossy()) {
    std::cout << "link: drop " << 100.0 * opt.link.drop_probability
              << "%, dup " << 100.0 * opt.link.duplicate_probability
              << "%, retry up to " << opt.retry.max_attempts
              << " attempts (timeout " << opt.retry.base_timeout << " x"
              << opt.retry.backoff_factor << " backoff"
              << (opt.retry.attempt_budget > 0
                      ? ", budget " + std::to_string(opt.retry.attempt_budget)
                      : std::string())
              << ")\n";
  }
  if (opt.trials > 1) {
    const sim::TrialRunner probe(sim::TrialRunnerConfig{.jobs = opt.jobs});
    std::cout << "trials: " << opt.trials << " seeded from " << opt.seed
              << ", " << probe.jobs() << " worker thread"
              << (probe.jobs() == 1 ? "" : "s")
              << " (aggregates independent of --jobs)\n";
  }
  std::cout << "\n";

  const sim::TrialRunner runner(sim::TrialRunnerConfig{.jobs = opt.jobs});
  const auto acc = metrics::run_trials(
      runner, opt.trials, opt.seed, [&](std::size_t, std::uint64_t seed) {
        if (opt.keys == 0) return run_one(opt, seed);
        return on_executor(opt, seed, [&](auto& exec) {
          return saturation ? run_saturation(opt, seed, exec)
                            : run_service(opt, exec);
        });
      });

  if (opt.trials > 1) {
    print_aggregate_panel(acc);
  } else if (saturation) {
    print_saturation_panel(opt, acc);
  } else if (opt.keys > 0) {
    print_service_panel(opt, acc);
  } else {
    print_single_run_panel(opt, acc);
  }

  if (!opt.json_out.empty()) {
    std::ofstream out(opt.json_out);
    out << "{\n  \"bench\": \"plsim\",\n  \"strategy\": \""
        << core::to_string(opt.strategy) << "-" << opt.param
        << "\",\n  \"trials\": " << opt.trials << ",\n  \"seed\": "
        << opt.seed << ",\n  \"metrics\": " << acc.to_json(2) << "\n}\n";
    if (!out) {
      std::cerr << "error: could not write " << opt.json_out << "\n";
      return 1;
    }
  }
  return 0;
}
