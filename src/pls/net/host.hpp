// Multi-tenant hosting: one physical server, many per-key tenants.
//
// The paper's §2 multi-key service runs every key on *one* set of servers
// ("a server S may store entries for many keys"). A HostServer is that
// physical server: a transport endpoint (net::Server) owning a dense,
// KeyId-indexed table of per-key protocol state. The Network stamps each
// Message with its KeyId; the host routes the delivery to the matching
// tenant, handing it a ClusterView scoped to that key. A host models no
// load: the saturation study's busy horizons and in-flight lookups belong
// to workload::SaturationEngine, the only code that reads them.
//
// A ClusterView is the only transport handle a tenant (or a strategy's
// client side) ever sees: it mirrors the Network's send/broadcast/call
// surface, stamps the key on every outgoing message, and reads the per-key
// TransportStats channel. Because each key also owns a private link-Rng
// stream (Network::add_channel), a tenant's observable behaviour over a
// shared cluster is byte-identical to the same protocol running on a
// standalone single-key cluster seeded with the same streams.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "pls/common/types.hpp"
#include "pls/net/network.hpp"
#include "pls/net/server.hpp"

namespace pls::net {

class ClusterView;

/// Per-key protocol state hosted on one server. Subclasses implement the
/// placement-strategy message handling of §3/§5; `id()` is the host
/// server's id (a tenant acts *as* its host for its own key's traffic).
class Tenant {
 public:
  explicit Tenant(ServerId id) : id_(id) {}
  virtual ~Tenant() = default;

  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  ServerId id() const noexcept { return id_; }

  /// Handles a one-way message addressed to this tenant's key.
  virtual void on_message(const Message& m, ClusterView& net) = 0;

  /// Handles a request/reply exchange; must return the reply message.
  virtual Message on_rpc(const Message& m, ClusterView& net) = 0;

  /// Permanent-loss hook: discard all locally stored state for this key,
  /// as if the host came back from a crash with an empty disk. Default is
  /// a no-op for stateless tenants.
  virtual void wipe() {}

 private:
  ServerId id_;
};

/// A key-scoped window onto a (shared or private) cluster's transport.
///
/// Mirrors the Network's client/server call surface so protocol code reads
/// identically in both deployments; every outgoing message is stamped with
/// the view's key, which selects the per-key link-Rng stream and charges
/// the per-key TransportStats channel. Copyable and cheap (two words).
class ClusterView {
 public:
  /// `repair` marks every message sent through this view as background
  /// repair traffic, charging the network's repair ledger in addition to
  /// the usual channels. Hosts propagate the flag of an incoming message
  /// into the view they hand the tenant, so repair-triggered fan-out stays
  /// on the repair bill.
  ClusterView(Network& net, KeyId key, bool repair = false)
      : net_(&net), key_(key), repair_(repair) {}

  KeyId key() const noexcept { return key_; }
  Network& network() noexcept { return *net_; }

  std::size_t size() const noexcept { return net_->size(); }
  const FailureState& failures() const noexcept { return net_->failures(); }
  bool is_up(ServerId s) const { return net_->is_up(s); }

  /// Member-list arithmetic for elastic placement: ranks run over all
  /// non-gone servers in ascending id order, so rank i is id i until a
  /// server permanently leaves.
  std::size_t member_count() const noexcept {
    return net_->failures().member_count();
  }
  ServerId member(std::size_t rank) const {
    return net_->failures().member_at(rank);
  }
  std::size_t member_index(ServerId s) const {
    return net_->failures().member_index(s);
  }

  bool client_send(ServerId to, Message m) {
    stamp(m);
    return net_->client_send(to, m);
  }

  CallResult client_call(ServerId to, Message m, const RetryPolicy& policy,
                         std::uint32_t attempt_cap) {
    stamp(m);
    return net_->client_call(to, m, policy, attempt_cap);
  }

  void send(ServerId from, ServerId to, Message m) {
    stamp(m);
    net_->send(from, to, m);
  }

  void broadcast(ServerId from, Message m) {
    stamp(m);
    net_->broadcast(from, m);
  }

  std::optional<Message> rpc(ServerId from, ServerId to, Message m) {
    stamp(m);
    return net_->rpc(from, to, m);
  }

  /// This key's share of the cluster traffic (Network::key_stats).
  const TransportStats& stats() const { return net_->key_stats(key_); }

  const RetryPolicy& retry_policy() const noexcept {
    return net_->retry_policy();
  }
  const LinkModel& link_model() const noexcept { return net_->link_model(); }

  EntryBufferPool& reply_pool() noexcept { return net_->reply_pool(); }

 private:
  void stamp(Message& m) const noexcept {
    m.key = key_;
    if (repair_) m.repair = true;
  }

  Network* net_;
  KeyId key_;
  bool repair_ = false;
};

/// A physical server hosting one tenant per key. Deliveries are routed by
/// the message's KeyId; the transport-side dedup window (net::Server) is
/// shared by all tenants, which is safe because sequence numbers are unique
/// per network, not per key.
class HostServer final : public Server {
 public:
  explicit HostServer(ServerId id) : Server(id) {}

  /// Registers `tenant` as the handler for `key`'s traffic on this host.
  /// One tenant per key; the tenant's id must match the host's.
  void add_tenant(KeyId key, std::unique_ptr<Tenant> tenant);

  Tenant* tenant(KeyId key) noexcept;
  const Tenant* tenant(KeyId key) const noexcept;
  std::size_t num_tenants() const noexcept { return num_tenants_; }

  /// Pre-sizes the tenant table (ServiceConfig::expected_keys hint).
  void reserve_tenants(std::size_t n) { tenants_.reserve(n); }

  /// Wipes every tenant on this host (permanent data loss), in key
  /// registration order.
  void wipe_tenants();

  void on_message(const Message& m, Network& net) override;
  Message on_rpc(const Message& m, Network& net) override;

 private:
  Tenant& route(const Message& m);

  /// Dense tenant table indexed by KeyId. KeyIds are interned densely in
  /// registration order (Cluster::add_key), so a direct vector replaces
  /// the per-key hash table *and* the separate registration-order list a
  /// host-wide wipe used to need: index order IS registration order.
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::size_t num_tenants_ = 0;
};

}  // namespace pls::net
