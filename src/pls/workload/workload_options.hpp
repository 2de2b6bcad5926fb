// Saturation-mode CLI option validation, factored out of tools/pls_sim.cpp
// so the rejection rules are unit-testable without building the tool.
//
// plsim's saturation mode is switched on by --offered-load > 0; every other
// workload-engine flag refines it. The validator rejects nonsensical
// combinations (a flash crowd without a Zipfian workload, admission control
// with nothing offered, out-of-range rates) with a human-readable message
// instead of silently running a meaningless experiment.
#pragma once

#include <optional>
#include <string>

#include "pls/core/strategy.hpp"
#include "pls/net/link_model.hpp"
#include "pls/net/retry_policy.hpp"

namespace pls::workload {

/// The saturation-mode slice of plsim's command line. Optional fields are
/// "flag was given"; absent means the default applies.
struct SaturationCliOptions {
  /// --offered-load (client events per simulated second; 0 = classic
  /// closed-loop mode, saturation flags disallowed).
  double offered_load = 0.0;
  bool offered_load_set = false;
  /// --workload (uniform | zipfian).
  std::optional<std::string> workload;
  /// --theta (Zipf exponent; needs --workload zipfian).
  std::optional<double> theta;
  /// --flash-crowd (needs --workload zipfian).
  bool flash_crowd = false;
  /// --admit (backlog limit in simulated seconds; needs saturation mode).
  std::optional<double> admit;
  /// --coalesce (needs saturation mode).
  bool coalesce = false;
  /// --read-fraction (needs saturation mode).
  std::optional<double> read_fraction;
  /// --deadline (needs saturation mode).
  std::optional<double> deadline;
};

/// Returns an error message when the combination is invalid, nullopt when
/// it is fine. `num_keys` is the experiment's --keys value (saturation mode
/// drives the multi-key service and needs at least one key).
std::optional<std::string> validate_saturation_options(
    const SaturationCliOptions& options, std::size_t num_keys);

/// Validation for the link and retry flags (--drop, --dup, --max-attempts,
/// --timeout, --backoff): the bounds net::Network enforces, checked up
/// front so that a bad value is a usage error rather than an abort.
/// Returns the error message, or nullopt.
std::optional<std::string> validate_transport_options(
    const net::LinkModel& link, const net::RetryPolicy& retry);

/// plsim's sharded-execution slice of the command line.
struct ShardCliOptions {
  /// --shards (worker shard count for sim::ShardedRuntime).
  std::size_t shards = 1;
  bool shards_set = false;
};

/// Validation for `--shards`: requires the multi-key service mode
/// (`num_keys` >= 1 — key routing is by key content), a power-of-two
/// count in [1, 256] (routing is `hash & (S-1)`; 256 is a sanity cap, not
/// an architectural limit). Returns the error message, or nullopt.
std::optional<std::string> validate_shard_options(
    const ShardCliOptions& options, std::size_t num_keys);

/// plsim's placement-strategy slice of the command line.
struct StrategyCliOptions {
  /// --strategy.
  core::StrategyKind kind = core::StrategyKind::kRoundRobin;
  /// --param (x or y; Full Replication ignores it).
  std::size_t param = 2;
  /// --servers (n).
  std::size_t servers = 10;
  /// --probes (r, the probes drawn per replica group).
  std::size_t probes = 16;
  bool probes_set = false;
};

/// Validation for the strategy flags: the values the chosen family rejects
/// (core::check_strategy_config over --servers hosts), and `--probes`,
/// which is only meaningful for --strategy multiprobe and bounded to
/// [1, 64] — each extra probe costs an O(n) scan per owner decision, and
/// the balance gain flattens out around r = 21. Returns the error message,
/// or nullopt.
std::optional<std::string> validate_strategy_options(
    const StrategyCliOptions& options);

}  // namespace pls::workload
