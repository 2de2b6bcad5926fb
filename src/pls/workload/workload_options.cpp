#include "pls/workload/workload_options.hpp"

#include <cmath>

namespace pls::workload {

std::optional<std::string> validate_saturation_options(
    const SaturationCliOptions& options, std::size_t num_keys) {
  if (options.offered_load_set) {
    if (!std::isfinite(options.offered_load) || options.offered_load < 0.0) {
      return "--offered-load must be a finite rate >= 0";
    }
  }
  const bool saturation = options.offered_load > 0.0;

  if (!saturation) {
    // Classic closed-loop mode: the saturation-engine refinements have
    // nothing to refine.
    if (options.workload.has_value()) {
      return "--workload needs saturation mode (--offered-load > 0)";
    }
    if (options.theta.has_value()) {
      return "--theta needs saturation mode (--offered-load > 0)";
    }
    if (options.flash_crowd) {
      return "--flash-crowd needs saturation mode (--offered-load > 0)";
    }
    if (options.admit.has_value()) {
      return "--admit needs saturation mode (--offered-load > 0)";
    }
    if (options.coalesce) {
      return "--coalesce needs saturation mode (--offered-load > 0)";
    }
    if (options.read_fraction.has_value()) {
      return "--read-fraction needs saturation mode (--offered-load > 0)";
    }
    if (options.deadline.has_value()) {
      return "--deadline needs saturation mode (--offered-load > 0)";
    }
    return std::nullopt;
  }

  if (num_keys == 0) {
    return "saturation mode drives the multi-key service: set --keys >= 1";
  }
  const std::string workload = options.workload.value_or("zipfian");
  if (workload != "uniform" && workload != "zipfian") {
    return "--workload must be 'uniform' or 'zipfian', got '" + workload +
           "'";
  }
  if (options.theta.has_value()) {
    if (workload != "zipfian") {
      return "--theta only applies to --workload zipfian";
    }
    if (!std::isfinite(*options.theta) || *options.theta < 0.0 ||
        *options.theta > 16.0) {
      return "--theta must be in [0, 16]";
    }
  }
  if (options.flash_crowd && workload != "zipfian") {
    return "--flash-crowd only applies to --workload zipfian";
  }
  if (options.admit.has_value() &&
      (!std::isfinite(*options.admit) || *options.admit < 0.0)) {
    return "--admit must be a finite backlog limit >= 0";
  }
  if (options.read_fraction.has_value() &&
      (!std::isfinite(*options.read_fraction) ||
       *options.read_fraction < 0.0 || *options.read_fraction > 1.0)) {
    return "--read-fraction must be in [0, 1]";
  }
  if (options.deadline.has_value() &&
      (!std::isfinite(*options.deadline) || *options.deadline < 0.0)) {
    return "--deadline must be >= 0";
  }
  return std::nullopt;
}

std::optional<std::string> validate_transport_options(
    const net::LinkModel& link, const net::RetryPolicy& retry) {
  // Written so that NaN fails every bound.
  const auto probability = [](double p) { return p >= 0.0 && p <= 1.0; };
  if (!probability(link.drop_probability)) {
    return "--drop must be a probability in [0, 1]";
  }
  if (!probability(link.duplicate_probability)) {
    return "--dup must be a probability in [0, 1]";
  }
  if (retry.max_attempts < 1) {
    return "--max-attempts must be >= 1";
  }
  if (!(retry.base_timeout > 0.0)) {
    return "--timeout must be > 0";
  }
  if (!(retry.backoff_factor >= 1.0)) {
    return "--backoff must be >= 1";
  }
  return std::nullopt;
}

std::optional<std::string> validate_shard_options(
    const ShardCliOptions& options, std::size_t num_keys) {
  if (!options.shards_set) return std::nullopt;
  if (options.shards < 1) {
    return "--shards must be >= 1";
  }
  if ((options.shards & (options.shards - 1)) != 0) {
    return "--shards must be a power of two (keys are routed by "
           "hash & (S-1))";
  }
  if (options.shards > 256) {
    return "--shards must be <= 256";
  }
  if (num_keys == 0) {
    return "--shards needs the multi-key service mode: set --keys >= 1";
  }
  return std::nullopt;
}

std::optional<std::string> validate_strategy_options(
    const StrategyCliOptions& options) {
  if (options.probes_set) {
    if (options.kind != core::StrategyKind::kMultiProbe) {
      return "--probes only applies to --strategy multiprobe";
    }
    if (options.probes < 1) {
      return "--probes must be >= 1";
    }
    if (options.probes > 64) {
      return "--probes must be <= 64 (each probe is an O(n) scan per "
             "placement decision)";
    }
  }
  core::StrategyConfig config;
  config.kind = options.kind;
  config.param = options.param;
  config.probes = options.probes;
  if (const auto err = core::check_strategy_config(config, options.servers)) {
    return "--param " + std::to_string(options.param) + " on --servers " +
           std::to_string(options.servers) + ": " + *err;
  }
  return std::nullopt;
}

}  // namespace pls::workload
