// Production-shaped workloads: the traffic a deployed lookup service
// actually faces, not the paper's uniform/Poisson lab shapes.
//
// A YCSB-style generator family (cf. Cooper et al.'s workload engine, and
// Salah/Roos/Strufe 2014 on how realistic load diverges from uniform
// predictions) producing one merged, time-sorted event stream:
//
//   * Zipfian key popularity with exponent theta (exact inverse-CDF
//     sampling via ZipfRankSampler, optionally scrambled so popularity is
//     decorrelated from key index),
//   * hot-key flash crowds: periodic time windows during which a rotating
//     hot set of keys absorbs a configured fraction of all lookups,
//   * read/write mix: each client event is a lookup with probability
//     `read_fraction`, otherwise an add/delete (50/50),
//   * diurnal load curves: a sinusoidally modulated arrival rate
//     (nonhomogeneous Poisson, sampled by thinning),
//   * correlated failures: groups of servers failing together and
//     recovering after a fixed downtime,
//   * network partitions: two-sided splits (net::split_partition) opening
//     and healing, carried in the stream as events whose seed reproduces
//     the exact split.
//
// Delete victims are pre-resolved at generation time (the generator tracks
// each key's live entry pool), so replaying the stream needs no hidden
// randomness: any consumer — the SaturationEngine, a test oracle, a plain
// loop — applies the identical operations in the identical order. All
// randomness flows from ProductionWorkloadConfig::seed; equal configs
// produce byte-identical streams.
//
// generate_service_workload draws the plainer multi-key service mix
// (Poisson lookups and Poisson churn, no failures) as the same stream type.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pls/common/rng.hpp"
#include "pls/common/types.hpp"
#include "pls/workload/popularity.hpp"

namespace pls::workload {

/// Zipfian key sampler with optional popularity scrambling. Unscrambled,
/// key k has rank k (key 0 most popular); scrambled, ranks map to keys
/// through a seeded permutation, so the hot keys are spread over the key
/// space like YCSB's scrambled-Zipfian. Either way `probability(key)` is
/// the exact analytic mass — the chi-square property tests compare
/// empirical frequencies against it directly.
class ZipfianKeyGenerator {
 public:
  ZipfianKeyGenerator(std::size_t num_keys, double theta, bool scramble,
                      std::uint64_t seed);

  std::size_t num_keys() const noexcept { return ranks_.size(); }
  double theta() const noexcept { return ranks_.alpha(); }

  std::size_t sample(Rng& rng) const;
  double probability(std::size_t key) const;

 private:
  ZipfRankSampler ranks_;
  /// rank -> key permutation; empty = identity (unscrambled).
  std::vector<std::uint32_t> rank_to_key_;
  /// key -> rank inverse, kept alongside for probability().
  std::vector<std::uint32_t> key_to_rank_;
};

struct FlashCrowdConfig {
  /// Crowd cycle length; 0 disables flash crowds.
  double period = 0.0;
  /// Crowd-active prefix of each period (0 < duration <= period).
  double duration = 0.0;
  /// Size of each window's hot set.
  std::size_t hot_keys = 1;
  /// Fraction of lookups during an active window that hit the hot set.
  double hot_fraction = 0.9;
};

/// The flash-crowd timetable: which windows are crowd-active and which
/// keys are hot in each. Every window's hot set is derived purely from
/// (seed, window index), so two schedules with equal configs agree without
/// sharing state and replay never depends on query order.
class FlashCrowdSchedule {
 public:
  FlashCrowdSchedule(const FlashCrowdConfig& config, std::size_t num_keys,
                     std::uint64_t seed);

  bool enabled() const noexcept { return config_.period > 0.0; }
  /// True when a flash crowd is in progress at time t.
  bool active(SimTime t) const noexcept;
  std::uint64_t window(SimTime t) const noexcept {
    return static_cast<std::uint64_t>(t / config_.period);
  }
  /// The hot keys of the window containing t, ascending.
  const std::vector<std::uint32_t>& hot_set(SimTime t) const;
  /// A uniform draw from the hot set of the window containing t.
  std::size_t sample_hot(SimTime t, Rng& rng) const;

 private:
  FlashCrowdConfig config_;
  std::size_t num_keys_;
  std::uint64_t seed_;
  /// Last window materialised — a pure cache; hot sets are functions of
  /// (seed_, window), so memoisation cannot affect results.
  mutable std::uint64_t cached_window_ = ~0ULL;
  mutable std::vector<std::uint32_t> cached_hot_;
};

struct DiurnalConfig {
  /// Peak-to-mean rate swing in [0, 1); 0 = flat (plain Poisson).
  double amplitude = 0.0;
  /// Length of one day.
  double period = 1000.0;
};

/// Arrival-time stream with a sinusoidal daily rate curve:
/// rate(t) = base * (1 + amplitude * sin(2*pi*t / period)), sampled by
/// thinning against the peak rate. amplitude = 0 is an ordinary Poisson
/// process.
class DiurnalArrivals {
 public:
  DiurnalArrivals(double base_rate, const DiurnalConfig& config, Rng rng);

  double rate_at(SimTime t) const noexcept;
  /// Next arrival time (strictly increasing).
  SimTime next();

 private:
  double base_rate_;
  DiurnalConfig config_;
  Rng rng_;
  SimTime now_ = 0.0;
};

struct CorrelatedFailureConfig {
  /// Mean time between failure bursts; 0 disables failures.
  double mean_interval = 0.0;
  /// Servers taken down together per burst (correlated failure domain).
  std::size_t group_size = 2;
  /// Time until each burst's servers recover.
  double downtime = 10.0;
};

struct PartitionEventConfig {
  /// Mean time between partition openings; 0 disables partitions.
  double mean_interval = 0.0;
  /// How long each partition lasts before healing.
  double duration = 20.0;
};

struct ProductionWorkloadConfig {
  std::size_t num_keys = 64;
  std::size_t entries_per_key = 30;
  /// Cluster size; required (> 0) when failures or partitions are enabled.
  std::size_t num_servers = 0;
  /// Zipf exponent of key popularity (0 = uniform).
  double zipf_theta = 0.99;
  /// Scramble popularity ranks over the key space (YCSB scrambled-Zipf).
  bool scramble = false;
  /// Mean client-event arrival rate (events per unit time).
  double offered_load = 1.0;
  /// Probability a client event is a lookup (the rest split 50/50 into
  /// adds and deletes).
  double read_fraction = 0.95;
  std::size_t target_answer_size = 3;
  /// Client events to generate (failure/partition events come on top).
  std::size_t num_events = 10000;
  FlashCrowdConfig flash_crowd{};
  DiurnalConfig diurnal{};
  CorrelatedFailureConfig failures{};
  PartitionEventConfig partitions{};
  std::uint64_t seed = 1;
};

enum class ProdEventKind : std::uint8_t {
  kLookup,
  kAdd,
  kDelete,
  kFail,
  kRecover,
  kPartitionStart,
  kPartitionEnd,
};

struct ProdEvent {
  SimTime time = 0.0;
  ProdEventKind kind = ProdEventKind::kLookup;
  /// Key index (kLookup / kAdd / kDelete).
  std::uint32_t key = 0;
  /// kAdd: the new entry. kDelete: the victim, pre-resolved at generation
  /// time so replay is randomness-free.
  Entry entry = 0;
  /// kFail / kRecover: the server.
  ServerId server = 0;
  /// kPartitionStart: seed for net::split_partition — replaying the seed
  /// reproduces the exact split.
  std::uint64_t aux = 0;
};

struct ProductionWorkload {
  std::vector<Key> keys;
  std::vector<std::vector<Entry>> initial_entries;  // per key
  std::vector<ProdEvent> events;                    // time-sorted
  /// Time of the last client event (the offered-traffic horizon; goodput
  /// normalises by this).
  SimTime horizon = 0.0;
  ProductionWorkloadConfig config;
};

ProductionWorkload generate_production_workload(
    const ProductionWorkloadConfig& config);

/// The multi-key service mix: Zipf-popular lookups and uniform churn, each
/// arriving as its own Poisson process, with no failures or partitions.
struct ServiceWorkloadConfig {
  std::size_t num_keys = 50;
  /// Zipf exponent of key lookup popularity (0 = uniform).
  double zipf_alpha = 1.0;
  /// Initial entries per key.
  std::size_t entries_per_key = 30;
  /// Mean time between lookups / between updates (Poisson each).
  double lookup_interarrival = 1.0;
  double update_interarrival = 10.0;
  /// Events (lookups + updates) to draw. A delete drawn on a key with no
  /// live entry emits nothing, so the stream can be shorter than this.
  std::size_t num_events = 10000;
  /// Target answer size of every lookup.
  std::size_t target_answer_size = 3;
  std::uint64_t seed = 1;
};

/// Draws the service mix as a production stream. Updates pick a uniform
/// key and are adds or deletes with equal odds; each delete's victim is a
/// uniform live entry of its key, drawn from Rng(seed ^ 0xde1e7e).
ProductionWorkload generate_service_workload(
    const ServiceWorkloadConfig& config);

}  // namespace pls::workload
