#include "pls/core/full_replication.hpp"

namespace pls::core {

void FullReplicationServer::on_message(const net::Message& m,
                                       net::ClusterView& net) {
  if (const auto* place = std::get_if<net::PlaceRequest>(&m)) {
    net.broadcast(id(), net::StoreBatch{place->entries});
  } else if (const auto* add = std::get_if<net::AddRequest>(&m)) {
    net.broadcast(id(), net::StoreEntry{add->entry});
  } else if (const auto* del = std::get_if<net::DeleteRequest>(&m)) {
    net.broadcast(id(), net::RemoveEntry{del->entry});
  } else {
    StrategyServer::on_message(m, net);
  }
}

FullReplicationStrategy::FullReplicationStrategy(
    StrategyConfig config, std::size_t num_servers,
    std::shared_ptr<net::FailureState> failures)
    : Strategy(config, num_servers, std::move(failures)) {
  install_tenants();
}

FullReplicationStrategy::FullReplicationStrategy(StrategyConfig config,
                                                 net::Cluster& cluster)
    : Strategy(config, cluster) {
  install_tenants();
}

LookupResult FullReplicationStrategy::partial_lookup(std::size_t t) {
  return single_server_lookup(cluster_view(), client_rng(), t, retry_policy());
}

void FullReplicationStrategy::attach_host(ServerId host, Rng rng) {
  register_tenant<FullReplicationServer>(host, rng);
}

void FullReplicationStrategy::rebalance(const net::MembershipChange& change) {
  // Leaves need no data movement: every survivor already mirrors the full
  // content. A newcomer receives the whole union (one StoreBatch).
  if (change.kind != net::MembershipChange::Kind::kJoin) return;
  send_union_to(change.host);
}

}  // namespace pls::core
