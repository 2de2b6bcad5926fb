#include "pls/core/strategy_factory.hpp"

#include <algorithm>
#include <cctype>
#include <string>

#include "pls/core/fixed_x.hpp"
#include "pls/core/full_replication.hpp"
#include "pls/core/random_server_x.hpp"
#include "pls/core/replica_groups.hpp"
#include "pls/core/round_robin_y.hpp"

namespace pls::core {

std::unique_ptr<Strategy> make_strategy(
    StrategyConfig config, std::size_t num_servers,
    std::shared_ptr<net::FailureState> failures) {
  if (failures == nullptr) failures = net::make_failure_state(num_servers);
  switch (config.kind) {
    case StrategyKind::kFullReplication:
      return std::make_unique<FullReplicationStrategy>(config, num_servers,
                                                       std::move(failures));
    case StrategyKind::kFixed:
      return std::make_unique<FixedStrategy>(config, num_servers,
                                             std::move(failures));
    case StrategyKind::kRandomServer:
      return std::make_unique<RandomServerStrategy>(config, num_servers,
                                                    std::move(failures));
    case StrategyKind::kRoundRobin:
      return std::make_unique<RoundRobinStrategy>(config, num_servers,
                                                  std::move(failures));
    case StrategyKind::kHash:
      return std::make_unique<HashStrategy>(config, num_servers,
                                            std::move(failures));
    case StrategyKind::kMultiProbe:
      return std::make_unique<MultiProbeStrategy>(config, num_servers,
                                                  std::move(failures));
  }
  PLS_CHECK_MSG(false, "unknown strategy kind");
}

std::unique_ptr<Strategy> make_strategy(StrategyConfig config,
                                        net::Cluster& cluster) {
  switch (config.kind) {
    case StrategyKind::kFullReplication:
      return std::make_unique<FullReplicationStrategy>(config, cluster);
    case StrategyKind::kFixed:
      return std::make_unique<FixedStrategy>(config, cluster);
    case StrategyKind::kRandomServer:
      return std::make_unique<RandomServerStrategy>(config, cluster);
    case StrategyKind::kRoundRobin:
      return std::make_unique<RoundRobinStrategy>(config, cluster);
    case StrategyKind::kHash:
      return std::make_unique<HashStrategy>(config, cluster);
    case StrategyKind::kMultiProbe:
      return std::make_unique<MultiProbeStrategy>(config, cluster);
  }
  PLS_CHECK_MSG(false, "unknown strategy kind");
}

std::optional<StrategyKind> parse_strategy_kind(std::string_view name) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "full" || lower == "fullreplication" || lower == "replication")
    return StrategyKind::kFullReplication;
  if (lower == "fixed" || lower == "fixed-x") return StrategyKind::kFixed;
  if (lower == "randomserver" || lower == "randomserver-x" ||
      lower == "random")
    return StrategyKind::kRandomServer;
  if (lower == "roundrobin" || lower == "round" || lower == "round-robin" ||
      lower == "roundrobin-y")
    return StrategyKind::kRoundRobin;
  if (lower == "hash" || lower == "hash-y") return StrategyKind::kHash;
  if (lower == "multiprobe" || lower == "multi-probe" || lower == "mp")
    return StrategyKind::kMultiProbe;
  return std::nullopt;
}

}  // namespace pls::core
