// §3.5/§5.5 Hash-y: entry v is stored at servers f_1(v)..f_y(v).
//
// Updates are point-to-point (no broadcasts, no coordinator): the cheapest
// scheme under churn, at the price of unbalanced per-server loads and hence
// a lookup cost slightly above 1 even for small t. Collisions between hash
// functions deduplicate, so expected storage is h*n*(1-(1-1/n)^y)
// (Table 1).
#pragma once

#include "pls/common/hashing.hpp"
#include "pls/core/strategy.hpp"

namespace pls::core {

class HashServer final : public StrategyServer {
 public:
  HashServer(ServerId id, Rng rng, HashFamily family,
             std::size_t storage_budget)
      : StrategyServer(id, rng),
        family_(std::move(family)),
        storage_budget_(storage_budget) {}

  void on_message(const net::Message& m, net::ClusterView& net) override;

  /// Membership changes re-key the family (ranks over the new member
  /// list); the strategy pushes the replacement to every tenant.
  void set_family(HashFamily family) { family_ = std::move(family); }

 private:
  /// Sends Msg{v} to each distinct server the first `copies` functions
  /// choose, in function order: place, add and delete share this fan-out.
  template <typename Msg>
  void send_to_targets(Entry v, std::size_t copies, net::ClusterView& net);

  HashFamily family_;
  std::size_t storage_budget_;
};

class HashStrategy final : public Strategy {
 public:
  HashStrategy(StrategyConfig config, std::size_t num_servers,
               std::shared_ptr<net::FailureState> failures);
  /// Shared-cluster mode: one more tenant key on `cluster`'s hosts.
  HashStrategy(StrategyConfig config, net::Cluster& cluster);

  LookupResult partial_lookup(std::size_t t) override;

  std::size_t y() const noexcept { return config().param; }
  const HashFamily& family() const noexcept { return family_; }

  /// Repair rule: every union entry is restored onto its y hash targets;
  /// single-copy entries (hash collisions) additionally get a spare so the
  /// next wipe cannot be fatal. No-op for budgeted (static) placements.
  net::RepairOutcome repair_once() override;

 protected:
  void attach_host(ServerId host, Rng rng) override;
  /// Re-keys the hash family over the surviving member list and migrates
  /// every entry to its new targets.
  void rebalance(const net::MembershipChange& change) override;

  /// Snapshot: the family's raw per-function seeds and server count — the
  /// rekey-at-epoch history is not derivable from the config, so the seeds
  /// themselves are persisted and pushed back to every tenant on load.
  void save_extras(wire::Writer& w) const override;
  void load_extras(wire::Reader& r) override;

 private:
  void build();

  HashFamily family_;
};

}  // namespace pls::core
