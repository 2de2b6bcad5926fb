// §3.1/§5.1 Full Replication: every server stores every entry.
//
// The traditional baseline. Lookups cost exactly one server; every update
// is a broadcast. Storage cost h*n (Table 1).
#pragma once

#include "pls/core/strategy.hpp"

namespace pls::core {

class FullReplicationServer final : public StrategyServer {
 public:
  using StrategyServer::StrategyServer;
  void on_message(const net::Message& m, net::ClusterView& net) override;
};

class FullReplicationStrategy final : public Strategy {
 public:
  FullReplicationStrategy(StrategyConfig config, std::size_t num_servers,
                          std::shared_ptr<net::FailureState> failures);
  /// Shared-cluster mode: one more tenant key on `cluster`'s hosts.
  FullReplicationStrategy(StrategyConfig config, net::Cluster& cluster);

  LookupResult partial_lookup(std::size_t t) override;

  /// Full mirrors: repair resyncs any member whose store differs from the
  /// surviving union.
  net::RepairOutcome repair_once() override { return repair_mirrored(); }

 protected:
  void attach_host(ServerId host, Rng rng) override;
  void rebalance(const net::MembershipChange& change) override;
};

}  // namespace pls::core
