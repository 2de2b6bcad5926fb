// The multi-key partial lookup service — the public API a downstream user
// adopts.
//
// §2 of the paper: "each key can be managed separately ... different
// strategies can be used to manage different types of keys. For instance,
// frequently updated keys require strategies with small update costs, while
// static keys want low lookup costs and fairness." This facade implements
// exactly that: a default configuration plus an optional per-key policy
// override, composed over ONE shared net::Cluster — n multi-tenant host
// servers carrying every key's tenant state ("a server S may store entries
// for many keys"). Service memory is therefore O(K·h/n + n) rather than
// the K·n server objects and K networks a per-key-cluster design costs,
// failures injected on the cluster hit every key at once (as they would on
// a real deployment), and the transport counters are one real cluster-wide
// set with a per-key breakdown.
//
// Each Key string is interned to a dense KeyId on first touch; all hot
// paths resolve the string once and index by id from then on. Per-key
// random streams (client, tenants, link) are derived from (service seed,
// key content), so results are reproducible and independent of the order
// keys are first touched — and byte-identical to running each key on its
// own standalone single-key Strategy with the same derived seed.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "pls/core/strategy.hpp"
#include "pls/core/strategy_factory.hpp"

namespace pls::core {

struct ServiceConfig {
  std::size_t num_servers = 10;
  StrategyConfig default_strategy{};
  /// Optional per-key override: return nullopt to use the default. Called
  /// once per key, on first touch.
  std::function<std::optional<StrategyConfig>(const Key&)> strategy_policy;
  /// Transport reliability shared by every key: the link model and
  /// retransmission policy are cluster-wide (a lossy wire is a property of
  /// the deployment, not of one key) and override whatever a
  /// strategy_policy override carries. Each key's link stream is reseeded
  /// from the service seed and the key, so runs stay deterministic.
  net::LinkModel link{};
  net::RetryPolicy retry{};
  /// Expected number of distinct keys (0 = unknown). A reservation hint:
  /// pre-sizes the intern table, the per-key strategy vector and every
  /// host's tenant table, avoiding rehash churn while a large key space
  /// fills in.
  std::size_t expected_keys = 0;
  std::uint64_t seed = 1;
};

class PartialLookupService {
 public:
  explicit PartialLookupService(ServiceConfig config);
  /// Releases the strategies newest first, so each finds its membership
  /// subscription at the back of the cluster's list: teardown is linear
  /// in the key count, not quadratic.
  ~PartialLookupService();
  /// Moving leaves the source with no strategies and no cluster.
  PartialLookupService(PartialLookupService&&) = default;

  /// place(k, {v...}): (re)initialises the entries of key k.
  void place(const Key& key, std::span<const Entry> entries);

  /// add(k, v).
  void add(const Key& key, Entry v);

  /// delete(k, v) — named erase because `delete` is reserved.
  void erase(const Key& key, Entry v);

  /// partial_lookup(k, t): returns >= t entries when possible; an unknown
  /// key yields the empty result of §2's semantics.
  LookupResult partial_lookup(const Key& key, std::size_t t);

  bool contains_key(const Key& key) const;
  std::size_t num_keys() const noexcept { return strategies_.size(); }
  /// Current host count, including permanently departed (tombstoned) ids.
  std::size_t num_servers() const noexcept { return cluster_->size(); }

  /// Cluster-wide failure injection (affects every key). Routed through
  /// the shared network, like Strategy's failure API.
  void fail_server(ServerId s) { cluster_->network().fail(s); }
  void recover_server(ServerId s) { cluster_->network().recover(s); }
  void recover_all() { cluster_->network().recover_all(); }
  const net::FailureState& failures() const noexcept { return *failures_; }

  /// Elastic membership, cluster-wide: every key's strategy observes the
  /// change (installing a tenant on joins, migrating data as its placement
  /// rule requires). Returns the new host's id.
  ServerId add_server();
  void remove_server(ServerId s, net::Loss loss);

  /// The shared physical cluster every key runs on.
  net::Cluster& cluster() noexcept { return *cluster_; }
  const net::Cluster& cluster() const noexcept { return *cluster_; }

  /// Direct access to a key's strategy (metrics, diagnostics). The key must
  /// exist.
  Strategy& strategy(const Key& key);
  const Strategy& strategy(const Key& key) const;

  /// Direct access by dense KeyId (ids are 0..num_keys()-1). Used by the
  /// sharded runtime to iterate a shard's tenants without string lookups.
  Strategy& strategy_at(KeyId id) { return *strategies_[id]; }
  const Strategy& strategy_at(KeyId id) const { return *strategies_[id]; }

  /// The dense id `key` was interned to, or nullopt if never touched.
  std::optional<KeyId> key_id(const Key& key) const;

  /// The construction config (snapshot fingerprinting).
  const ServiceConfig& config() const noexcept { return config_; }

  /// Every interned key name, indexed by its dense KeyId. Snapshot support:
  /// re-interning these in order on a freshly built service reproduces the
  /// saved id assignment (ids are dense and intern-ordered).
  std::vector<Key> key_names() const;

  /// Interns `key` (creating its strategy on first touch) and returns the
  /// dense id — the snapshot-restore entry point for rebuilding a saved
  /// key population without issuing any updates.
  KeyId intern_key(const Key& key) { return intern(key); }

  /// Summed §4.1 storage cost over all keys.
  std::size_t total_storage() const;

  /// Cluster-wide transport counters: one real counter set maintained by
  /// the shared network (not a per-key sum).
  const net::TransportStats& total_transport() const {
    return cluster_->network().stats();
  }

  /// The slice of the cluster traffic attributed to `key` (which must
  /// exist). Summed over all keys these equal total_transport() — the
  /// tenancy conservation law; both sides are counted independently.
  const net::TransportStats& key_transport(const Key& key) const;

  /// Zeroes the cluster-wide and every per-key counter set.
  void reset_transport() { cluster_->network().reset_stats(); }

 private:
  /// Interns `key`, creating its strategy tenant on first touch.
  KeyId intern(const Key& key);
  /// Resolves an existing key without creating it.
  std::optional<KeyId> find_id(const Key& key) const;

  ServiceConfig config_;
  std::shared_ptr<net::FailureState> failures_;
  std::unique_ptr<net::Cluster> cluster_;
  /// Key string -> dense KeyId; resolved once per public call.
  std::unordered_map<Key, KeyId> ids_;
  /// Indexed by KeyId (dense, insertion-ordered by construction).
  std::vector<std::unique_ptr<Strategy>> strategies_;
};

}  // namespace pls::core
