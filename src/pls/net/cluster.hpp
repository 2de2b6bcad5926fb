// A physical cluster: one Network plus n multi-tenant HostServers.
//
// The shared substrate of the multi-key service (§2): every key's tenants
// live on the same n hosts and all traffic flows over the one network, so
// service memory is O(K·h/n + n) instead of the K·n server objects and K
// networks a per-key-cluster design costs, and the cluster-wide
// TransportStats are a single real counter set with a per-key breakdown.
//
// A standalone single-key Strategy owns a private one-key Cluster; the
// shared and private deployments are byte-identical per key because each
// key carries its own link-Rng stream and stats channel (see host.hpp).
#pragma once

#include <memory>
#include <vector>

#include "pls/common/types.hpp"
#include "pls/net/failure.hpp"
#include "pls/net/host.hpp"
#include "pls/net/network.hpp"

namespace pls::net {

/// How a host leaves the cluster.
enum class Loss {
  /// Planned scale-in: the host's data stays readable until the membership
  /// listeners have migrated it off; only then is the host wiped.
  kGraceful,
  /// The machine is dead: its data is gone *before* anyone can react. Sole
  /// copies it held are permanently lost (repair can only restore entries
  /// that survive elsewhere).
  kPermanent,
};

/// A membership event, delivered to listeners in subscription order
/// (strategies subscribe at construction, so key order).
struct MembershipChange {
  enum class Kind { kJoin, kLeaveGraceful, kLeavePermanent };
  Kind kind;
  ServerId host;
};

class MembershipListener {
 public:
  virtual ~MembershipListener() = default;
  virtual void on_membership_change(const MembershipChange& change) = 0;
};

class Cluster {
 public:
  /// Builds `num_servers` empty hosts over `failures` (shared failure
  /// injection); pass nullptr for a private FailureState.
  explicit Cluster(std::size_t num_servers,
                   std::shared_ptr<FailureState> failures = nullptr);

  std::size_t size() const noexcept { return hosts_.size(); }
  std::size_t num_keys() const noexcept { return num_keys_; }

  Network& network() noexcept { return net_; }
  const Network& network() const noexcept { return net_; }
  const std::shared_ptr<FailureState>& failures() const noexcept {
    return failures_;
  }

  /// Registers a new tenant key and returns its dense KeyId. The key's
  /// link-Rng stream is seeded from `link_seed`. The first key reuses
  /// channel 0 (reseeding it), so a one-key cluster is channel-for-channel
  /// identical to the pre-tenancy single-key network.
  KeyId add_key(std::uint64_t link_seed);

  /// Installs `tenant` as `key`'s protocol state on host `host`.
  void add_tenant(ServerId host, KeyId key, std::unique_ptr<Tenant> tenant);

  HostServer& host(ServerId s);
  const HostServer& host(ServerId s) const;

  /// Key-count hint: pre-sizes every host's tenant table.
  void reserve_keys(std::size_t n);

  /// Elastic join: registers a new empty host (the next dense id, never a
  /// reused one), grows the FailureState and every transport ledger, and
  /// notifies membership listeners so each key can install a tenant and
  /// migrate data onto the newcomer. When the FailureState is shared and a
  /// sibling cluster already registered the id (the differential-twin
  /// pattern), the existing registration is adopted.
  ServerId add_host();

  /// Elastic leave: removes `id` from the membership for good. kGraceful
  /// notifies listeners while the host's data is still intact (so they can
  /// migrate it) and wipes afterwards; kPermanent wipes first — whatever
  /// only this host stored is lost. Shared-FailureState siblings may have
  /// already marked the server gone; the wipe and notifications still run.
  void remove_host(ServerId id, Loss loss);

  /// Permanent data loss on a live host: every tenant's state for every
  /// key is discarded (the FailureInjector's wipe path).
  void wipe_host(ServerId id);

  /// Membership listeners are notified on add_host/remove_host, in
  /// subscription order. Listeners must unsubscribe before destruction;
  /// removal drops the listener's most recent subscription.
  void add_membership_listener(MembershipListener* listener);
  void remove_membership_listener(MembershipListener* listener);

 private:
  void notify(const MembershipChange& change);

  std::shared_ptr<FailureState> failures_;
  Network net_;
  /// Hosts owned by net_, typed. Gone hosts keep their slot (ids are never
  /// reused) but are excluded from the membership.
  std::vector<HostServer*> hosts_;
  std::size_t num_keys_ = 0;
  std::vector<MembershipListener*> listeners_;
};

}  // namespace pls::net
