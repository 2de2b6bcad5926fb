// §3.2/§5.2 Fixed-x: every server stores the *same* x entries.
//
// Storage cost x*n, lookup cost 1 (when t <= x), unfairness is the worst
// of all schemes (only the chosen x entries are ever returned), but update
// overhead is lowest: a receiving server broadcasts only when the update
// actually affects the shared x-subset ("selective broadcast").
//
// Dynamic deletes can leave servers with fewer than x entries; callers pick
// x = t + b with a cushion b (§6.2, Fig 12).
#pragma once

#include "pls/core/strategy.hpp"

namespace pls::core {

class FixedServer final : public StrategyServer {
 public:
  FixedServer(ServerId id, Rng rng, std::size_t x)
      : StrategyServer(id, rng), x_(x) {}

  void on_message(const net::Message& m, net::ClusterView& net) override;

 private:
  std::size_t x_;
};

class FixedStrategy final : public Strategy {
 public:
  FixedStrategy(StrategyConfig config, std::size_t num_servers,
                std::shared_ptr<net::FailureState> failures);
  /// Shared-cluster mode: one more tenant key on `cluster`'s hosts.
  FixedStrategy(StrategyConfig config, net::Cluster& cluster);

  LookupResult partial_lookup(std::size_t t) override;

  std::size_t x() const noexcept { return config().param; }

  /// All servers mirror the same x-subset, so the mirrored repair rule
  /// applies verbatim.
  net::RepairOutcome repair_once() override { return repair_mirrored(); }

 protected:
  void attach_host(ServerId host, Rng rng) override;
  void rebalance(const net::MembershipChange& change) override;
};

}  // namespace pls::core
