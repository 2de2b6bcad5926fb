#include "pls/workload/generator.hpp"

#include <algorithm>
#include <cmath>

#include "pls/common/check.hpp"
#include "pls/common/distributions.hpp"
#include "pls/common/hashing.hpp"

namespace pls::workload {

namespace {

// Stream tags for deriving independent sub-seeds from the config seed.
constexpr std::uint64_t kScrambleStream = 0x5c7a0b1e;
constexpr std::uint64_t kFlashStream = 0xf1a54c0d;
constexpr std::uint64_t kSplitStream = 0x5b117;

/// Names the keys "key/<k>" and gives each `entries_per_key` entries,
/// numbered from 1 across the catalogue; returns the next unused entry.
Entry fill_catalogue(ProductionWorkload& out, std::size_t num_keys,
                     std::size_t entries_per_key) {
  Entry next_entry = 1;
  for (std::size_t k = 0; k < num_keys; ++k) {
    out.keys.push_back("key/" + std::to_string(k));
    std::vector<Entry> entries(entries_per_key);
    for (auto& v : entries) v = next_entry++;
    out.initial_entries.push_back(std::move(entries));
  }
  return next_entry;
}

/// Removes and returns a uniform entry of a non-empty live pool.
Entry take_uniform(std::vector<Entry>& pool, Rng& rng) {
  const std::size_t idx = static_cast<std::size_t>(rng.uniform(pool.size()));
  const Entry victim = pool[idx];
  pool[idx] = pool.back();
  pool.pop_back();
  return victim;
}

}  // namespace

ZipfianKeyGenerator::ZipfianKeyGenerator(std::size_t num_keys, double theta,
                                         bool scramble, std::uint64_t seed)
    : ranks_(num_keys, theta) {
  if (!scramble) return;
  Rng perm_rng(mix_hash(seed, kScrambleStream));
  const auto perm = perm_rng.permutation(num_keys);
  rank_to_key_.resize(num_keys);
  key_to_rank_.resize(num_keys);
  for (std::size_t rank = 0; rank < num_keys; ++rank) {
    rank_to_key_[rank] = static_cast<std::uint32_t>(perm[rank]);
    key_to_rank_[perm[rank]] = static_cast<std::uint32_t>(rank);
  }
}

std::size_t ZipfianKeyGenerator::sample(Rng& rng) const {
  const std::size_t rank = ranks_.sample(rng);
  return rank_to_key_.empty() ? rank : rank_to_key_[rank];
}

double ZipfianKeyGenerator::probability(std::size_t key) const {
  PLS_CHECK(key < ranks_.size());
  const std::size_t rank = key_to_rank_.empty() ? key : key_to_rank_[key];
  return ranks_.probability(rank);
}

FlashCrowdSchedule::FlashCrowdSchedule(const FlashCrowdConfig& config,
                                       std::size_t num_keys,
                                       std::uint64_t seed)
    : config_(config), num_keys_(num_keys), seed_(seed) {
  if (!enabled()) return;
  PLS_CHECK_MSG(config_.duration > 0.0 && config_.duration <= config_.period,
                "flash-crowd duration must be in (0, period]");
  PLS_CHECK_MSG(config_.hot_keys >= 1 && config_.hot_keys <= num_keys_,
                "flash-crowd hot set must fit the key space");
  PLS_CHECK_MSG(config_.hot_fraction >= 0.0 && config_.hot_fraction <= 1.0,
                "flash-crowd hot fraction must be in [0, 1]");
}

bool FlashCrowdSchedule::active(SimTime t) const noexcept {
  if (!enabled()) return false;
  const double phase =
      t - static_cast<double>(window(t)) * config_.period;
  return phase < config_.duration;
}

const std::vector<std::uint32_t>& FlashCrowdSchedule::hot_set(
    SimTime t) const {
  PLS_CHECK_MSG(enabled(), "flash crowds are disabled");
  const std::uint64_t w = window(t);
  if (w != cached_window_) {
    // The hot set is a pure function of (seed, window): derive a private
    // Rng, draw the set, and sort for a canonical presentation.
    Rng rng(mix_hash(w + 1, seed_));
    const auto picks = rng.sample_indices(num_keys_, config_.hot_keys);
    cached_hot_.assign(picks.size(), 0);
    for (std::size_t i = 0; i < picks.size(); ++i) {
      cached_hot_[i] = static_cast<std::uint32_t>(picks[i]);
    }
    std::sort(cached_hot_.begin(), cached_hot_.end());
    cached_window_ = w;
  }
  return cached_hot_;
}

std::size_t FlashCrowdSchedule::sample_hot(SimTime t, Rng& rng) const {
  const auto& hot = hot_set(t);
  return hot[static_cast<std::size_t>(rng.uniform(hot.size()))];
}

DiurnalArrivals::DiurnalArrivals(double base_rate, const DiurnalConfig& config,
                                 Rng rng)
    : base_rate_(base_rate), config_(config), rng_(rng) {
  PLS_CHECK_MSG(base_rate_ > 0.0, "arrival rate must be positive");
  PLS_CHECK_MSG(config_.amplitude >= 0.0 && config_.amplitude < 1.0,
                "diurnal amplitude must be in [0, 1)");
  if (config_.amplitude > 0.0) {
    PLS_CHECK_MSG(config_.period > 0.0, "diurnal period must be positive");
  }
}

double DiurnalArrivals::rate_at(SimTime t) const noexcept {
  if (config_.amplitude <= 0.0) return base_rate_;
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  return base_rate_ *
         (1.0 + config_.amplitude * std::sin(kTwoPi * t / config_.period));
}

SimTime DiurnalArrivals::next() {
  if (config_.amplitude <= 0.0) {
    now_ += rng_.exponential(1.0 / base_rate_);
    return now_;
  }
  // Thinning (Lewis & Shedler): propose at the peak rate, accept with
  // probability rate(t) / peak.
  const double peak = base_rate_ * (1.0 + config_.amplitude);
  for (;;) {
    now_ += rng_.exponential(1.0 / peak);
    if (rng_.uniform_real() * peak <= rate_at(now_)) return now_;
  }
}

ProductionWorkload generate_production_workload(
    const ProductionWorkloadConfig& config) {
  PLS_CHECK_MSG(config.num_keys > 0, "need at least one key");
  PLS_CHECK_MSG(config.entries_per_key > 0, "need entries per key");
  PLS_CHECK_MSG(config.num_events > 0, "need at least one event");
  PLS_CHECK_MSG(config.offered_load > 0.0, "offered load must be positive");
  PLS_CHECK_MSG(config.read_fraction >= 0.0 && config.read_fraction <= 1.0,
                "read fraction must be in [0, 1]");
  PLS_CHECK_MSG(config.zipf_theta >= 0.0, "zipf theta must be >= 0");
  if (config.failures.mean_interval > 0.0) {
    PLS_CHECK_MSG(config.num_servers > 0,
                  "correlated failures need num_servers");
    PLS_CHECK_MSG(config.failures.group_size >= 1, "empty failure group");
    PLS_CHECK_MSG(config.failures.downtime > 0.0,
                  "failure downtime must be positive");
  }
  if (config.partitions.mean_interval > 0.0) {
    PLS_CHECK_MSG(config.num_servers >= 2,
                  "partitions need at least two servers");
    PLS_CHECK_MSG(config.partitions.duration > 0.0,
                  "partition duration must be positive");
  }

  ProductionWorkload out;
  out.config = config;

  Entry next_entry =
      fill_catalogue(out, config.num_keys, config.entries_per_key);
  std::vector<std::vector<Entry>> live = out.initial_entries;

  const ZipfianKeyGenerator zipf(config.num_keys, config.zipf_theta,
                                 config.scramble, config.seed);
  const FlashCrowdSchedule flash(config.flash_crowd, config.num_keys,
                                 mix_hash(config.seed, kFlashStream));

  Rng master(config.seed);
  Rng key_rng = master.fork(1);
  Rng type_rng = master.fork(2);
  DiurnalArrivals arrivals(config.offered_load, config.diurnal,
                           master.fork(3));
  Rng delete_rng = master.fork(4);
  Rng failure_rng = master.fork(5);
  Rng partition_rng = master.fork(6);

  // --- client stream -----------------------------------------------------
  out.events.reserve(config.num_events);
  for (std::size_t i = 0; i < config.num_events; ++i) {
    const SimTime t = arrivals.next();
    out.horizon = t;
    if (type_rng.bernoulli(config.read_fraction)) {
      // Lookup. During an active flash crowd a hot_fraction slice of reads
      // abandons the base popularity for the window's hot set.
      std::size_t key;
      if (flash.enabled() && flash.active(t) &&
          key_rng.bernoulli(config.flash_crowd.hot_fraction)) {
        key = flash.sample_hot(t, key_rng);
      } else {
        key = zipf.sample(key_rng);
      }
      out.events.push_back(ProdEvent{t, ProdEventKind::kLookup,
                                     static_cast<std::uint32_t>(key), 0, 0,
                                     0});
      continue;
    }
    // Write, following the base popularity (flash crowds are a read
    // phenomenon). Deletes pick a uniform live victim now, so replay needs
    // no randomness; a delete against an empty pool degrades to an add.
    const std::size_t key = zipf.sample(key_rng);
    const bool is_add = type_rng.bernoulli(0.5) || live[key].empty();
    if (is_add) {
      const Entry v = next_entry++;
      live[key].push_back(v);
      out.events.push_back(ProdEvent{t, ProdEventKind::kAdd,
                                     static_cast<std::uint32_t>(key), v, 0,
                                     0});
    } else {
      out.events.push_back(ProdEvent{t, ProdEventKind::kDelete,
                                     static_cast<std::uint32_t>(key),
                                     take_uniform(live[key], delete_rng), 0,
                                     0});
    }
  }

  // --- correlated failures ----------------------------------------------
  if (config.failures.mean_interval > 0.0) {
    std::vector<double> down_until(config.num_servers, 0.0);
    PoissonProcess bursts(config.failures.mean_interval, failure_rng.fork(1));
    for (SimTime t = bursts.next(); t <= out.horizon; t = bursts.next()) {
      std::vector<ServerId> up;
      for (ServerId s = 0; s < config.num_servers; ++s) {
        if (down_until[s] <= t) up.push_back(s);
      }
      // Never take the whole cluster down: a burst leaves at least one
      // server standing.
      if (up.size() < 2) continue;
      const std::size_t group =
          std::min(config.failures.group_size, up.size() - 1);
      const auto picks = failure_rng.sample_indices(up.size(), group);
      for (const std::size_t i : picks) {
        const ServerId s = up[i];
        down_until[s] = t + config.failures.downtime;
        out.events.push_back(
            ProdEvent{t, ProdEventKind::kFail, 0, 0, s, 0});
        out.events.push_back(ProdEvent{t + config.failures.downtime,
                                       ProdEventKind::kRecover, 0, 0, s, 0});
      }
    }
  }

  // --- network partitions -------------------------------------------------
  if (config.partitions.mean_interval > 0.0) {
    std::uint64_t splits = 0;
    SimTime t = partition_rng.exponential(config.partitions.mean_interval);
    while (t <= out.horizon) {
      const std::uint64_t split_seed =
          mix_hash(++splits, mix_hash(config.seed, kSplitStream));
      out.events.push_back(ProdEvent{t, ProdEventKind::kPartitionStart, 0, 0,
                                     0, split_seed});
      const SimTime heal = t + config.partitions.duration;
      out.events.push_back(
          ProdEvent{heal, ProdEventKind::kPartitionEnd, 0, 0, 0, 0});
      // Partitions never overlap: the next one opens an exponential
      // interval after this one heals.
      t = heal + partition_rng.exponential(config.partitions.mean_interval);
    }
  }

  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const ProdEvent& a, const ProdEvent& b) {
                     return a.time < b.time;
                   });
  return out;
}

ProductionWorkload generate_service_workload(
    const ServiceWorkloadConfig& config) {
  PLS_CHECK_MSG(config.num_keys > 0, "need at least one key");
  PLS_CHECK_MSG(config.entries_per_key > 0, "need entries per key");
  PLS_CHECK_MSG(
      config.lookup_interarrival > 0.0 && config.update_interarrival > 0.0,
      "inter-arrival times must be positive");

  ProductionWorkload out;
  out.config.num_keys = config.num_keys;
  out.config.entries_per_key = config.entries_per_key;
  out.config.zipf_theta = config.zipf_alpha;
  out.config.target_answer_size = config.target_answer_size;
  out.config.num_events = config.num_events;
  out.config.seed = config.seed;

  Entry next_entry =
      fill_catalogue(out, config.num_keys, config.entries_per_key);
  std::vector<std::vector<Entry>> live = out.initial_entries;

  Rng master(config.seed);
  ZipfRankSampler popularity(config.num_keys, config.zipf_alpha);
  Rng popularity_rng = master.fork(1);
  Rng update_rng = master.fork(2);
  PoissonProcess lookups(config.lookup_interarrival, master.fork(3));
  PoissonProcess updates(config.update_interarrival, master.fork(4));
  Rng delete_rng(config.seed ^ 0xde1e7e);

  SimTime next_lookup = lookups.next();
  SimTime next_update = updates.next();
  out.events.reserve(config.num_events);
  for (std::size_t drawn = 0; drawn < config.num_events; ++drawn) {
    if (next_lookup <= next_update) {
      const auto key =
          static_cast<std::uint32_t>(popularity.sample(popularity_rng));
      out.events.push_back(
          ProdEvent{next_lookup, ProdEventKind::kLookup, key, 0, 0, 0});
      next_lookup = lookups.next();
      continue;
    }
    const auto key =
        static_cast<std::uint32_t>(update_rng.uniform(config.num_keys));
    auto& pool = live[key];
    if (update_rng.bernoulli(0.5)) {
      const Entry v = next_entry++;
      pool.push_back(v);
      out.events.push_back(
          ProdEvent{next_update, ProdEventKind::kAdd, key, v, 0, 0});
    } else if (!pool.empty()) {
      out.events.push_back(ProdEvent{next_update, ProdEventKind::kDelete, key,
                                     take_uniform(pool, delete_rng), 0, 0});
    }
    next_update = updates.next();
  }
  if (!out.events.empty()) out.horizon = out.events.back().time;
  return out;
}

}  // namespace pls::workload
