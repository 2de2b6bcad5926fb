#include "pls/core/fixed_x.hpp"

namespace pls::core {

void FixedServer::on_message(const net::Message& m, net::ClusterView& net) {
  if (const auto* place = std::get_if<net::PlaceRequest>(&m)) {
    // Keep the first x of the h entries and broadcast only those (§3.2):
    // a zero-copy prefix view of the placed buffer.
    net.broadcast(id(), net::StoreBatch{place->entries.prefix(x_)});
  } else if (const auto* add = std::get_if<net::AddRequest>(&m)) {
    // Selective broadcast (§5.2): only when below the x-entry quota. All
    // servers hold identical content, so the local check decides globally.
    if (store().size() < x_ && !store().contains(add->entry)) {
      net.broadcast(id(), net::StoreEntry{add->entry});
    }
  } else if (const auto* del = std::get_if<net::DeleteRequest>(&m)) {
    if (store().contains(del->entry)) {
      net.broadcast(id(), net::RemoveEntry{del->entry});
    }
  } else {
    StrategyServer::on_message(m, net);
  }
}

FixedStrategy::FixedStrategy(StrategyConfig config, std::size_t num_servers,
                             std::shared_ptr<net::FailureState> failures)
    : Strategy(config, num_servers, std::move(failures)) {
  install_tenants();
}

FixedStrategy::FixedStrategy(StrategyConfig config, net::Cluster& cluster)
    : Strategy(config, cluster) {
  install_tenants();
}

LookupResult FixedStrategy::partial_lookup(std::size_t t) {
  // All servers are identical; contacting more than one gains nothing.
  return single_server_lookup(cluster_view(), client_rng(), t, retry_policy());
}

void FixedStrategy::attach_host(ServerId host, Rng rng) {
  register_tenant<FixedServer>(host, rng, config().param);
}

void FixedStrategy::rebalance(const net::MembershipChange& change) {
  // The shared x-subset lives on every survivor; only a newcomer needs a
  // copy (the union is at most x entries).
  if (change.kind != net::MembershipChange::Kind::kJoin) return;
  send_union_to(change.host);
}

}  // namespace pls::core
