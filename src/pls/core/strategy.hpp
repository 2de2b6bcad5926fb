// The strategy framework: the partial-lookup interface of §2, the five
// concrete schemes of §3/§5 (plus the MultiProbe extension) behind it, and
// the Placement snapshot the metrics module analyses.
//
// A Strategy manages ONE key, exactly as the paper does ("we focus here on
// strategies that manage only one key", §2); pls::core::PartialLookupService
// composes per-key strategies into the multi-key service.
//
// Deployment modes: a standalone Strategy owns a private one-key
// net::Cluster (the historical shape — golden traces depend on it byte for
// byte); a Strategy built over a shared net::Cluster registers itself as
// one more tenant key on the cluster's multi-tenant hosts. Either way all
// transport flows through a key-scoped net::ClusterView, so protocol code
// cannot tell the deployments apart.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "pls/common/rng.hpp"
#include "pls/common/types.hpp"
#include "pls/core/entry_store.hpp"
#include "pls/core/lookup.hpp"
#include "pls/net/cluster.hpp"
#include "pls/net/repair.hpp"

namespace pls::wire {
class Writer;
class Reader;
}  // namespace pls::wire

namespace pls::core {

enum class StrategyKind {
  kFullReplication,  ///< §3.1: every server stores everything
  kFixed,            ///< §3.2: every server stores the same x entries
  kRandomServer,     ///< §3.3: every server stores its own random x entries
  kRoundRobin,       ///< §3.4: entry i on servers i..i+y-1 (mod n)
  kHash,             ///< §3.5: entry v on servers f_1(v)..f_y(v)
  kMultiProbe,       ///< extension: multi-probe consistent hashing, y copies
};

std::string_view to_string(StrategyKind kind) noexcept;

/// Per-key strategy configuration.
struct StrategyConfig {
  StrategyKind kind = StrategyKind::kFullReplication;
  /// x for Fixed/RandomServer, y for Round-Robin/Hash/MultiProbe; ignored
  /// by Full Replication. Must be >= 1 where it applies.
  std::size_t param = 1;
  /// Optional total-storage budget applied at place() time by Round-Robin,
  /// Hash and MultiProbe (0 = unlimited). Used by the §4.3 coverage
  /// experiment where budgets below h force partial placement. Static
  /// placement only.
  std::size_t storage_budget = 0;
  /// RandomServer-x only: §5.3's "active replacement" alternative for
  /// deletes — a server that loses an entry immediately fetches a
  /// substitute from a random peer instead of relying on the cushion.
  /// Costlier and, per the paper, *less* fair under churn; kept as an
  /// ablation (bench_ablation_replacement re-measures the claim).
  bool rs_active_replacement = false;
  /// Transport reliability model for this key's cluster. The default is
  /// the paper's perfectly reliable link; set drop/duplicate
  /// probabilities to evaluate under loss. A zero LinkModel::seed is
  /// replaced by one derived from `seed`, keeping sibling strategies'
  /// link randomness independent but reproducible. On a *shared* cluster
  /// the probabilities are cluster-wide (the service installs them); only
  /// the derived seed is used, to seed this key's private link stream.
  net::LinkModel link{};
  /// Retransmission policy used by this key's clients and servers on a
  /// lossy link (inert on a reliable one).
  net::RetryPolicy retry{};
  /// MultiProbe only: the number of independent probes r per (entry,
  /// replica) — more probes flatten the peak-to-average storage load
  /// (Appleton & O'Reilly 2015 report r = 21 approaches 1.05×); ignored by
  /// the paper's five families.
  std::size_t probes = 16;
  std::uint64_t seed = 1;
};

/// The config rules of every family built over `num_servers` hosts: at
/// least one server; x or y >= 1 for every family but Full Replication,
/// which ignores it; y <= n for Round-Robin, whose y copy holders are
/// distinct servers; r >= 1 probes for MultiProbe; and a storage budget
/// only for Round-Robin, Hash and MultiProbe. Returns the first rule
/// `config` breaks, or nullopt. Strategy's constructors enforce it before
/// the key touches its cluster, so a rejected key leaves no trace there.
std::optional<std::string> check_strategy_config(const StrategyConfig& config,
                                                 std::size_t num_servers);

/// Immutable snapshot of which server stores which entries. The §4 metrics
/// (storage, coverage, fault tolerance) are functions of this alone.
struct Placement {
  std::vector<std::vector<Entry>> servers;

  std::size_t num_servers() const noexcept { return servers.size(); }
  /// Total stored entries across servers — the §4.1 storage cost.
  std::size_t total_entries() const noexcept;
  /// Number of distinct entries stored on at least one server.
  std::size_t distinct_entries() const;
};

/// Per-key tenant base shared by all strategies: an EntryStore plus default
/// handling of the generic messages (StoreBatch/StoreEntry/RemoveEntry and
/// the LookupRequest RPC). Strategy-specific tenants override `on_message`
/// for their placement/update logic. One instance per (host server, key).
class StrategyServer : public net::Tenant {
 public:
  StrategyServer(ServerId id, Rng rng) : net::Tenant(id), rng_(rng) {}

  EntryStore& store() noexcept { return store_; }
  const EntryStore& store() const noexcept { return store_; }

  void on_message(const net::Message& m, net::ClusterView& net) override;
  net::Message on_rpc(const net::Message& m, net::ClusterView& net) override;

  /// Permanent loss: the server comes back with an empty store. Strategies
  /// with extra per-server bookkeeping (Round-Robin slots, RandomServer's
  /// h counter) override and clear that too. Retired capacity is returned
  /// to the allocator — a wiped tenant must not retain its old footprint.
  void wipe() override {
    store_.clear();
    store_.shrink_to_fit();
  }

  /// Snapshot support. The base saves the tenant rng stream and the store
  /// contents in entries() order (the order sample_into consumes, so a
  /// restored store samples identically). Strategies with extra per-server
  /// bookkeeping override, call the base, then append their own fields.
  virtual void save_state(wire::Writer& w) const;
  virtual void load_state(wire::Reader& r);

 protected:
  Rng& rng() noexcept { return rng_; }

 private:
  EntryStore store_;
  Rng rng_;
};

/// The partial lookup service interface of §2, single key. Thread
/// compatibility: a Strategy and its cluster are a single-threaded
/// simulation unit; drive each instance from one thread.
///
/// Elastic membership: the strategy subscribes to its cluster's membership
/// events. On a join it installs its tenant on the new host (with the rng
/// stream an (n+1)-server construction would have produced) and migrates
/// data onto it; on a leave it re-places what the survivors still hold.
/// As a net::Repairable it also re-replicates entries below its redundancy
/// rule when the background RepairProcess asks.
class Strategy : public net::MembershipListener, public net::Repairable {
 public:
  ~Strategy() override;
  Strategy(const Strategy&) = delete;
  Strategy& operator=(const Strategy&) = delete;

  /// place(v1..vh): initialises the key's entries in batch. Replaces any
  /// previous content, per the §2 semantics.
  void place(std::span<const Entry> entries);

  /// add(v): incremental insert.
  void add(Entry v);

  /// delete(v) (named erase: `delete` is reserved): incremental removal.
  void erase(Entry v);

  /// partial_lookup(t): at least t entries when the strategy can provide
  /// them; `satisfied` is false otherwise.
  virtual LookupResult partial_lookup(std::size_t t) = 0;

  StrategyKind kind() const noexcept { return config_.kind; }
  std::string_view name() const noexcept { return to_string(config_.kind); }
  const StrategyConfig& config() const noexcept { return config_; }

  std::size_t num_servers() const noexcept { return cluster_->size(); }
  net::Network& network() noexcept { return cluster_->network(); }
  const net::Network& network() const noexcept { return cluster_->network(); }

  /// The cluster this strategy runs on (owned standalone, the service's
  /// when shared). The snapshot layer restores membership through it.
  net::Cluster& cluster() noexcept { return *cluster_; }
  const net::Cluster& cluster() const noexcept { return *cluster_; }

  /// This strategy's dense key id on its cluster (kDefaultKey standalone).
  KeyId key() const noexcept { return key_; }

  /// The key-scoped transport handle: stamps this strategy's KeyId on every
  /// message and reads its per-key stats channel. Cheap value type.
  net::ClusterView cluster_view() noexcept {
    return net::ClusterView(cluster_->network(), key_);
  }

  /// Transport counters attributed to this strategy's key. Standalone this
  /// equals network().stats(); on a shared cluster it is this key's slice.
  const net::TransportStats& transport() const {
    return cluster_->network().key_stats(key_);
  }

  /// The active retransmission policy (config().retry, as installed on
  /// the transport).
  const net::RetryPolicy& retry_policy() const noexcept {
    return cluster_->network().retry_policy();
  }

  /// Snapshot of the current entry placement across servers.
  Placement placement() const;

  /// Total entries stored across all servers (§4.1 storage cost).
  std::size_t storage_cost() const noexcept;

  /// Failure injection (shared with sibling strategies when the cluster or
  /// FailureState is shared). All three route through the network, so
  /// transport- and failure-side bookkeeping can never diverge.
  void fail_server(ServerId s) { network().fail(s); }
  void recover_server(ServerId s) { network().recover(s); }
  void recover_all() { network().recover_all(); }

  /// This strategy's per-server tenant state (tests, metrics).
  StrategyServer& server_state(ServerId s);
  const StrategyServer& server_state(ServerId s) const;

  /// Elastic membership. Standalone strategies own their cluster, so these
  /// are the natural entry points; on a shared cluster the event reaches
  /// every sibling key (prefer the service-level calls there, which make
  /// that explicit). Returns the new host's id.
  ServerId add_server();
  void remove_server(ServerId s, net::Loss loss);

  /// Permanent data loss on server `s` for THIS key (the standalone
  /// injector wipe path; a shared cluster wipes whole hosts via
  /// Cluster::wipe_host).
  void wipe_server(ServerId s);

  /// net::MembershipListener: installs a tenant on joins, then delegates
  /// to the strategy-specific rebalance().
  void on_membership_change(const net::MembershipChange& change) final;

  /// Snapshot support: serializes everything mutable about this key — the
  /// client/repair rng streams, strategy-level extras (save_extras), and
  /// every tenant's state. load_state restores into a strategy built from
  /// the identical StrategyConfig over the same host set; it PLS_CHECKs
  /// the tenant count and leaves the strategy bit-identical to the saved
  /// one for all future operations.
  void save_state(wire::Writer& w) const;
  void load_state(wire::Reader& r);

 protected:
  /// Standalone mode: a private one-key cluster of `num_servers` hosts.
  Strategy(StrategyConfig config, std::size_t num_servers,
           std::shared_ptr<net::FailureState> failures);

  /// Shared mode: registers this strategy as a new tenant key on
  /// `cluster`. The cluster's link model and retry policy apply; the key's
  /// link stream is seeded from link_stream_seed(config).
  Strategy(StrategyConfig config, net::Cluster& cluster);

  /// The link-Rng stream seed for `config`'s key: config.link.seed, or the
  /// stream derived from config.seed when it is 0. Both deployment modes
  /// use this one derivation — which is what makes a shared-cluster key
  /// byte-identical to its standalone twin.
  static std::uint64_t link_stream_seed(const StrategyConfig& config);

  /// Delivery target for client requests: a uniformly random operational
  /// server (§5.1: "a client selects a server S at random").
  /// Returns kInvalidServer when the whole cluster is down.
  ServerId random_up_server();

  /// Hook: where this strategy's clients send place/add/delete requests.
  /// Default: random operational server. Round-Robin overrides to its
  /// coordinator (server 1 in the paper's numbering, id 0 here).
  virtual ServerId update_target();

  Rng& client_rng() noexcept { return client_rng_; }

  /// Installs this strategy's tenant type on one host, with that host's
  /// tenant stream (see install_tenants; a join replays the same chain).
  virtual void attach_host(ServerId host, Rng rng) = 0;

  /// Attaches a tenant to every host, in host order: host i gets the i-th
  /// fork of a fresh Rng(seed), fork(0x1000 + i). Each family's
  /// constructor calls it once, after checking its config.
  void install_tenants();

  /// Strategy-specific data movement after a membership change (called
  /// after attach_host on joins). Default: move nothing.
  virtual void rebalance(const net::MembershipChange& change);

  /// A repair-scoped transport handle: everything sent through it lands on
  /// the network's repair ledger.
  net::ClusterView repair_view() noexcept {
    return net::ClusterView(cluster_->network(), key_, /*repair=*/true);
  }

  /// Sorted distinct union of every server's stored entries — all the
  /// content that still exists for this key. Repair and migration can only
  /// re-replicate from here: metadata cannot resurrect lost data.
  std::vector<Entry> stored_union() const;

  /// How many servers (up or down — transient outages hide copies, they do
  /// not destroy them) currently store `v`.
  std::size_t copies_of(Entry v) const;

  /// Repair rule for mirrored layouts (Full Replication, Fixed-x): every
  /// member must store exactly the union; up mismatching members are
  /// resynced, down ones counted as deficit.
  net::RepairOutcome repair_mirrored();

  /// Join migration for layouts where the newcomer derives its own subset
  /// from the full batch (mirrored layouts take everything, RandomServer
  /// reservoir-samples x of it).
  void send_union_to(ServerId host);

  /// Dedicated randomness for repair decisions (e.g. which spare server
  /// receives an extra copy). A private stream: repair never perturbs
  /// client or tenant randomness, so runs without repair are untouched.
  Rng& repair_rng() noexcept { return repair_rng_; }

  /// A uniformly random up member that does not store `v`: one
  /// repair_rng() draw over those members in rank order. kInvalidServer,
  /// with no draw, when there is none.
  ServerId random_spare(Entry v);

  /// The two-copy floor (one copy on a single-member cluster): while `v`
  /// has fewer copies, stores it on a random spare through `view`. Counts
  /// each copy sent, and what no spare can take as deficit, in `out`.
  void restore_floor(Entry v, net::ClusterView& view, net::RepairOutcome& out);

  /// Strategy-level (not per-tenant) snapshot state. Default: nothing.
  /// Hash-y persists its rekeyed hash family here; MultiProbe verifies its
  /// derived placement parameters.
  virtual void save_extras(wire::Writer& w) const;
  virtual void load_extras(wire::Reader& r);

 private:
  StrategyConfig config_;
  /// Standalone mode owns its cluster; shared mode borrows the service's.
  std::unique_ptr<net::Cluster> owned_cluster_;
  net::Cluster* cluster_;
  KeyId key_ = kDefaultKey;
  Rng client_rng_;
  Rng repair_rng_;

 protected:
  /// Typed views of this key's tenants, one per host; filled by
  /// subclasses' register_tenant().
  std::vector<StrategyServer*> servers_;

  /// Creates a tenant of type T and registers it under this strategy's key
  /// on host `args[0]` (tenants must be registered in host-id order).
  template <typename T, typename... Args>
  T& register_tenant(Args&&... args) {
    auto owned = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *owned;
    cluster_->add_tenant(ref.id(), key_, std::move(owned));
    servers_.push_back(&ref);
    return ref;
  }
};

}  // namespace pls::core
