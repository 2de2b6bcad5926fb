#include "pls/net/cluster.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "pls/common/check.hpp"

namespace pls::net {

Cluster::Cluster(std::size_t num_servers,
                 std::shared_ptr<FailureState> failures)
    : failures_(failures != nullptr ? std::move(failures)
                                    : make_failure_state(num_servers)),
      net_(failures_) {
  PLS_CHECK_MSG(num_servers > 0, "a cluster needs at least one server");
  PLS_CHECK_MSG(failures_->size() == num_servers,
                "FailureState size must match the cluster size");
  hosts_.reserve(num_servers);
  for (std::size_t i = 0; i < num_servers; ++i) {
    auto host = std::make_unique<HostServer>(static_cast<ServerId>(i));
    hosts_.push_back(host.get());
    net_.add_server(std::move(host));
  }
}

KeyId Cluster::add_key(std::uint64_t link_seed) {
  if (num_keys_ == 0) {
    // Channel 0 always exists; handing it to the first key keeps a one-key
    // cluster identical to the pre-tenancy single-key network.
    net_.reseed_channel(kDefaultKey, link_seed);
    ++num_keys_;
    return kDefaultKey;
  }
  ++num_keys_;
  return net_.add_channel(link_seed);
}

void Cluster::add_tenant(ServerId host, KeyId key,
                         std::unique_ptr<Tenant> tenant) {
  PLS_CHECK_MSG(key < num_keys_, "add_key must precede add_tenant");
  this->host(host).add_tenant(key, std::move(tenant));
}

HostServer& Cluster::host(ServerId s) {
  PLS_CHECK(s < hosts_.size());
  return *hosts_[s];
}

const HostServer& Cluster::host(ServerId s) const {
  PLS_CHECK(s < hosts_.size());
  return *hosts_[s];
}

void Cluster::reserve_keys(std::size_t n) {
  for (HostServer* h : hosts_) h->reserve_tenants(n);
}

ServerId Cluster::add_host() {
  ServerId id;
  if (failures_->size() == hosts_.size()) {
    id = failures_->add_server();
  } else {
    // A sibling cluster sharing this FailureState already grew it (the
    // differential-twin pattern correlates membership across standalone
    // twins the same way it correlates failures). Adopt the id.
    PLS_CHECK_MSG(failures_->size() == hosts_.size() + 1,
                  "shared FailureState diverged from the cluster size");
    id = static_cast<ServerId>(hosts_.size());
    PLS_CHECK_MSG(failures_->is_member(id),
                  "adopted server id is not a member");
  }
  auto host = std::make_unique<HostServer>(id);
  if (num_keys_ > 0) host->reserve_tenants(num_keys_);
  hosts_.push_back(host.get());
  net_.add_server(std::move(host));
  notify({MembershipChange::Kind::kJoin, id});
  return id;
}

void Cluster::remove_host(ServerId id, Loss loss) {
  PLS_CHECK(id < hosts_.size());
  if (loss == Loss::kPermanent) {
    // The machine died with its disks: data is gone before any listener
    // gets a chance to migrate it.
    wipe_host(id);
  }
  if (failures_->is_member(id)) failures_->mark_gone(id);
  notify({loss == Loss::kGraceful ? MembershipChange::Kind::kLeaveGraceful
                                  : MembershipChange::Kind::kLeavePermanent,
          id});
  if (loss == Loss::kGraceful) {
    // Listeners have migrated everything they wanted off the departing
    // host; release its state now.
    wipe_host(id);
  }
}

void Cluster::wipe_host(ServerId id) {
  PLS_CHECK(id < hosts_.size());
  hosts_[id]->wipe_tenants();
}

void Cluster::add_membership_listener(MembershipListener* listener) {
  PLS_CHECK_MSG(listener != nullptr, "null membership listener");
  listeners_.push_back(listener);
}

void Cluster::remove_membership_listener(MembershipListener* listener) {
  // Searched from the back: a service releases its strategies newest first,
  // so each one finds itself last and teardown stays linear in the keys.
  const auto it = std::find(listeners_.rbegin(), listeners_.rend(), listener);
  if (it != listeners_.rend()) listeners_.erase(std::next(it).base());
}

void Cluster::notify(const MembershipChange& change) {
  for (MembershipListener* l : listeners_) l->on_membership_change(change);
}

}  // namespace pls::net
