#include "pls/core/random_server_x.hpp"

#include <algorithm>

#include "pls/common/check.hpp"
#include "pls/wire/wire.hpp"

namespace pls::core {

void RandomServerServer::save_state(wire::Writer& w) const {
  StrategyServer::save_state(w);
  w.varint(local_h_);
}

void RandomServerServer::load_state(wire::Reader& r) {
  StrategyServer::load_state(r);
  local_h_ = static_cast<std::size_t>(r.varint());
  PLS_CHECK_MSG(r.ok(), "truncated RandomServer tenant snapshot");
}

void RandomServerServer::on_message(const net::Message& m,
                                    net::ClusterView& net) {
  if (const auto* place = std::get_if<net::PlaceRequest>(&m)) {
    net.broadcast(id(), net::StoreBatch{place->entries});
  } else if (const auto* batch = std::get_if<net::StoreBatch>(&m)) {
    // Independently select a uniformly random x-subset of the batch (§3.3).
    local_h_ = batch->entries.size();
    if (batch->entries.size() <= x_) {
      store().assign(batch->entries);
    } else {
      store().clear();
      store().reserve(x_);
      for (std::size_t idx : rng().sample_indices(batch->entries.size(), x_)) {
        store().insert(batch->entries[idx]);
      }
    }
  } else if (const auto* add = std::get_if<net::AddRequest>(&m)) {
    // Every update is broadcast; each receiver decides randomly (§5.3).
    net.broadcast(id(), net::ReservoirAdd{add->entry});
  } else if (const auto* res = std::get_if<net::ReservoirAdd>(&m)) {
    ++local_h_;
    if (store().contains(res->entry)) return;
    if (store().size() < x_) {
      store().insert(res->entry);
    } else if (rng().bernoulli(static_cast<double>(x_) /
                               static_cast<double>(local_h_))) {
      // Keep the newcomer: evict a random resident so the subset stays a
      // uniform sample of all entries seen so far (reservoir sampling).
      store().erase(store().random_entry(rng()));
      store().insert(res->entry);
    }
  } else if (const auto* del = std::get_if<net::DeleteRequest>(&m)) {
    net.broadcast(id(), net::RemoveEntry{del->entry});
  } else if (const auto* rem = std::get_if<net::RemoveEntry>(&m)) {
    if (local_h_ > 0) --local_h_;
    const bool held = store().erase(rem->entry);
    // Default cushion scheme: no replacement sought. The ablation variant
    // refills immediately from a peer (§5.3's costlier alternative).
    if (held && active_replacement_) fetch_replacement(rem->entry, net);
  } else {
    StrategyServer::on_message(m, net);
  }
}

void RandomServerServer::fetch_replacement(Entry deleted,
                                           net::ClusterView& net) {
  const std::size_t n = net.size();
  if (n < 2) return;
  // One attempt at a random peer; "two servers are not likely to have the
  // same entries" (§5.3), so a single probe almost always suffices.
  auto peer = static_cast<ServerId>(rng().uniform(n - 1));
  if (peer >= id()) ++peer;
  if (!net.is_up(peer)) return;
  const auto reply = net.rpc(
      id(), peer, net::LookupRequest{static_cast<std::uint32_t>(x_)});
  if (!reply.has_value()) return;
  for (Entry candidate : std::get<net::LookupReply>(*reply).entries) {
    if (candidate != deleted && !store().contains(candidate)) {
      store().insert(candidate);
      return;
    }
  }
}

RandomServerStrategy::RandomServerStrategy(
    StrategyConfig config, std::size_t num_servers,
    std::shared_ptr<net::FailureState> failures)
    : Strategy(config, num_servers, std::move(failures)) {
  install_tenants();
}

RandomServerStrategy::RandomServerStrategy(StrategyConfig config,
                                           net::Cluster& cluster)
    : Strategy(config, cluster) {
  install_tenants();
}

LookupResult RandomServerStrategy::partial_lookup(std::size_t t) {
  return random_order_lookup(cluster_view(), client_rng(), t, retry_policy());
}

void RandomServerStrategy::attach_host(ServerId host, Rng rng) {
  register_tenant<RandomServerServer>(host, rng, config().param,
                                      config().rs_active_replacement);
}

void RandomServerStrategy::rebalance(const net::MembershipChange& change) {
  // A newcomer reservoir-samples its own x-subset from the union (the
  // StoreBatch handler does exactly the §3.3 selection); survivors keep
  // their samples, which stay uniform over the unchanged entry set.
  if (change.kind == net::MembershipChange::Kind::kJoin) {
    send_union_to(change.host);
    return;
  }
  if (change.kind != net::MembershipChange::Kind::kLeaveGraceful) return;
  // Planned scale-in: the leaver's store is still readable (the wipe
  // happens after the listeners ran). Rescue every entry it holds the
  // last copy of onto a surviving member; everything a survivor still
  // samples needs no migration.
  net::ClusterView view = cluster_view();
  for (Entry v : server_state(change.host).store().entries()) {
    if (copies_of(v) != 1) continue;
    const ServerId spare = random_spare(v);
    if (spare != kInvalidServer) view.client_send(spare, net::StoreEntry{v});
  }
}

net::RepairOutcome RandomServerStrategy::repair_once() {
  net::RepairOutcome out;
  const auto u = stored_union();
  if (u.empty()) return out;
  const net::FailureState& fs = network().failures();
  net::ClusterView view = repair_view();
  const net::SharedEntries shared(u);
  const std::size_t want = std::min(config().param, u.size());
  // Pass 1 — refill wiped members. Only a completely empty store marks a
  // wipe; partially full stores are the cushion shrinking by design and
  // must not be topped up (that would bias the random subsets).
  for (std::size_t rank = 0; rank < fs.member_count(); ++rank) {
    const ServerId s = fs.member_at(rank);
    if (server_state(s).store().size() != 0) continue;
    if (!fs.is_up(s)) {
      out.deficit_after += want;
      continue;
    }
    view.client_send(s, net::StoreBatch{shared});
    out.replicas_created += want;
  }
  // Pass 2 — redundancy floor: every entry gets at least two copies so it
  // survives the next wipe until the following scan.
  for (Entry v : u) restore_floor(v, view, out);
  return out;
}

}  // namespace pls::core
