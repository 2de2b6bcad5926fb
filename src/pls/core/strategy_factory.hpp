// Construction of strategies from configuration.
#pragma once

#include <memory>
#include <optional>
#include <string_view>

#include "pls/core/strategy.hpp"

namespace pls::core {

/// Builds a standalone strategy over a private `num_servers`-host cluster.
/// Pass a shared FailureState to correlate failures across several
/// strategies; pass nullptr to get a private one.
std::unique_ptr<Strategy> make_strategy(
    StrategyConfig config, std::size_t num_servers,
    std::shared_ptr<net::FailureState> failures = nullptr);

/// Builds a strategy as a new tenant key on `cluster`'s multi-tenant hosts
/// (the multi-key service's shared-cluster mode).
std::unique_ptr<Strategy> make_strategy(StrategyConfig config,
                                        net::Cluster& cluster);

/// Parses the names used throughout the paper and this repo's CLIs,
/// case-insensitively: "full"/"fullreplication"/"replication",
/// "fixed"/"fixed-x", "randomserver"/"randomserver-x"/"random",
/// "roundrobin"/"round"/"round-robin"/"roundrobin-y", "hash"/"hash-y" and
/// "multiprobe"/"multi-probe"/"mp". Returns nullopt for unknown names.
std::optional<StrategyKind> parse_strategy_kind(std::string_view name);

}  // namespace pls::core
