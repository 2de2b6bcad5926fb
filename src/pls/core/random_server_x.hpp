// §3.3/§5.3 RandomServer-x: every server stores its *own* uniformly random
// x-subset of the entries.
//
// Same x*n storage cost as Fixed-x but far better fairness and coverage in
// the static case. Clients merge answers from servers contacted in random
// order. Dynamic adds keep each server's subset uniform via reservoir
// sampling (Vitter); deletes use the same cushion scheme as Fixed-x — the
// paper rejects active replacement as costlier and *less* fair (§5.3), and
// our bench_ablation_replacement re-checks that claim.
#pragma once

#include "pls/core/strategy.hpp"

namespace pls::core {

class RandomServerServer final : public StrategyServer {
 public:
  RandomServerServer(ServerId id, Rng rng, std::size_t x,
                     bool active_replacement)
      : StrategyServer(id, rng),
        x_(x),
        active_replacement_(active_replacement) {}

  void on_message(const net::Message& m, net::ClusterView& net) override;

  /// This server's view of the global entry count h (maintained from the
  /// add/delete broadcasts; drives the reservoir keep-probability x/h).
  std::size_t local_h() const noexcept { return local_h_; }

  /// Permanent loss also forgets the h estimate; the refilling StoreBatch
  /// re-establishes it.
  void wipe() override {
    StrategyServer::wipe();
    local_h_ = 0;
  }

  /// Snapshot: base state plus the local h estimate.
  void save_state(wire::Writer& w) const override;
  void load_state(wire::Reader& r) override;

 private:
  /// §5.3's active-replacement variant: pull a substitute for a deleted
  /// entry from a random peer (2 extra messages per affected server).
  void fetch_replacement(Entry deleted, net::ClusterView& net);

  std::size_t x_;
  bool active_replacement_;
  std::size_t local_h_ = 0;
};

class RandomServerStrategy final : public Strategy {
 public:
  RandomServerStrategy(StrategyConfig config, std::size_t num_servers,
                       std::shared_ptr<net::FailureState> failures);
  /// Shared-cluster mode: one more tenant key on `cluster`'s hosts.
  RandomServerStrategy(StrategyConfig config, net::Cluster& cluster);

  LookupResult partial_lookup(std::size_t t) override;

  std::size_t x() const noexcept { return config().param; }

  /// Repair rule: a wiped (empty) member is refilled with a fresh random
  /// x-sample of the union; entries down to their last copy gain a second
  /// one on a repair-chosen spare. Partial stores are otherwise left alone
  /// (the cushion semantics: subsets shrink between places).
  net::RepairOutcome repair_once() override;

 protected:
  void attach_host(ServerId host, Rng rng) override;
  void rebalance(const net::MembershipChange& change) override;
};

}  // namespace pls::core
