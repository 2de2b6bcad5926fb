#include "pls/core/hash_y.hpp"

#include <algorithm>

#include "pls/common/check.hpp"
#include "pls/wire/wire.hpp"

namespace pls::core {

void HashStrategy::save_extras(wire::Writer& w) const {
  // The family rekeys on membership changes (seeds derived from the epoch
  // at the time), so the current raw seeds — not the construction seed —
  // are what a restore must reproduce.
  w.varint(family_.num_servers());
  const auto& seeds = family_.seeds();
  w.varint(seeds.size());
  for (const std::uint64_t s : seeds) w.u64le(s);
}

void HashStrategy::load_extras(wire::Reader& r) {
  const std::uint64_t num_servers = r.varint();
  const std::uint64_t count = r.varint();
  PLS_CHECK_MSG(r.ok() && count > 0 && num_servers > 0,
                "malformed Hash family snapshot");
  std::vector<std::uint64_t> seeds;
  seeds.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) seeds.push_back(r.u64le());
  PLS_CHECK_MSG(r.ok(), "truncated Hash family snapshot");
  family_ = HashFamily::from_seeds(std::move(seeds),
                                   static_cast<std::size_t>(num_servers));
  for (StrategyServer* s : servers_) {
    static_cast<HashServer*>(s)->set_family(family_);
  }
}

template <typename Msg>
void HashServer::send_to_targets(Entry v, std::size_t copies,
                                 net::ClusterView& net) {
  // Family outputs are member *ranks*; net.member translates them to server
  // ids (the identity while no server has permanently left).
  TargetList ranks;
  family_.targets(v, copies, ranks);
  for (ServerId rank : ranks) net.send(id(), net.member(rank), Msg{v});
}

void HashServer::on_message(const net::Message& m, net::ClusterView& net) {
  if (const auto* place = std::get_if<net::PlaceRequest>(&m)) {
    // Reset every server, then distribute. With a storage budget L below
    // y*h, entry i gets floor(L/h) or ceil(L/h) copies via its first hash
    // functions — the "keep a subset" regime of §4.3.
    net.broadcast(id(), net::StoreBatch{});
    const std::size_t h = place->entries.size();
    const std::size_t y = family_.size();
    for (std::size_t i = 0; i < h; ++i) {
      std::size_t copies = y;
      if (storage_budget_ != 0 && h > 0) {
        copies = storage_budget_ / h + (i < storage_budget_ % h ? 1 : 0);
        PLS_CHECK_MSG(copies <= y,
                      "storage budget exceeds what y hash functions place");
      }
      send_to_targets<net::StoreEntry>(place->entries[i], copies, net);
    }
  } else if (const auto* add = std::get_if<net::AddRequest>(&m)) {
    send_to_targets<net::StoreEntry>(add->entry, family_.size(), net);
  } else if (const auto* del = std::get_if<net::DeleteRequest>(&m)) {
    send_to_targets<net::RemoveEntry>(del->entry, family_.size(), net);
  } else {
    StrategyServer::on_message(m, net);
  }
}

HashStrategy::HashStrategy(StrategyConfig config, std::size_t num_servers,
                           std::shared_ptr<net::FailureState> failures)
    : Strategy(config, num_servers, std::move(failures)),
      family_(config.param, num_servers, Rng(config.seed).fork(0x2000)()) {
  build();
}

HashStrategy::HashStrategy(StrategyConfig config, net::Cluster& cluster)
    : Strategy(config, cluster),
      family_(config.param, cluster.size(), Rng(config.seed).fork(0x2000)()) {
  build();
}

void HashStrategy::build() {
  PLS_CHECK_MSG(config().param >= 1, "Hash-y needs y >= 1");
  Rng master(config().seed);
  for (std::size_t i = 0; i < num_servers(); ++i) {
    register_tenant<HashServer>(static_cast<ServerId>(i),
                                master.fork(0x1000 + i), family_,
                                config().storage_budget);
  }
}

LookupResult HashStrategy::partial_lookup(std::size_t t) {
  return random_order_lookup(cluster_view(), client_rng(), t, retry_policy());
}

void HashStrategy::attach_host(ServerId host, Rng rng) {
  register_tenant<HashServer>(host, rng, family_, config().storage_budget);
}

void HashStrategy::rebalance(const net::MembershipChange& change) {
  // Budgeted placements are static-only experiments: the per-entry copy
  // counts depend on the original place() order, which membership changes
  // cannot reproduce. Leave them untouched.
  if (config().storage_budget != 0) return;
  const net::FailureState& fs = network().failures();
  // Re-key the family over the new member count. The seed folds in the
  // failure epoch so successive membership changes draw fresh functions,
  // yet any run replaying the same event sequence re-derives them exactly.
  const std::uint64_t fseed =
      Rng(config().seed).fork(0x2000 + 0x100 * fs.epoch())();
  family_ = HashFamily(config().param, fs.member_count(), fseed);
  for (StrategyServer* s : servers_) {
    static_cast<HashServer*>(s)->set_family(family_);
  }
  // Migrate every surviving entry to its new targets and drop copies the
  // new functions no longer place (ordinary traffic: this is the cost of
  // the membership change, not of background repair).
  net::ClusterView view = cluster_view();
  TargetList wanted;  // member ranks
  for (Entry v : stored_union()) {
    wanted.clear();
    family_.targets(v, family_.size(), wanted);
    for (std::size_t rank = 0; rank < fs.member_count(); ++rank) {
      const ServerId s = fs.member_at(rank);
      const bool want = wanted.contains(static_cast<ServerId>(rank));
      const bool has = server_state(s).store().contains(v);
      if (want && !has) view.client_send(s, net::StoreEntry{v});
      if (!want && has) view.client_send(s, net::RemoveEntry{v});
    }
  }
  (void)change;
}

net::RepairOutcome HashStrategy::repair_once() {
  net::RepairOutcome out;
  if (config().storage_budget != 0) return out;
  const auto u = stored_union();
  if (u.empty()) return out;
  const net::FailureState& fs = network().failures();
  net::ClusterView view = repair_view();
  TargetList ranks;
  std::vector<ServerId> candidates;
  for (Entry v : u) {
    // Restore the entry onto each of its hash targets.
    ranks.clear();
    family_.targets(v, family_.size(), ranks);
    for (ServerId rank : ranks) {
      const ServerId s = fs.member_at(rank);
      if (server_state(s).store().contains(v)) continue;
      if (!fs.is_up(s)) {
        ++out.deficit_after;
        continue;
      }
      view.client_send(s, net::StoreEntry{v});
      ++out.replicas_created;
    }
    // Collision floor: when every hash function lands on one server the
    // entry has a single copy, and one wipe would destroy it. Give such
    // entries a spare on a repair-chosen up server.
    const std::size_t floor_copies =
        std::min<std::size_t>(2, fs.member_count());
    std::size_t copies = copies_of(v);
    while (copies < floor_copies) {
      candidates.clear();
      for (std::size_t rank = 0; rank < fs.member_count(); ++rank) {
        const ServerId s = fs.member_at(rank);
        if (fs.is_up(s) && !server_state(s).store().contains(v)) {
          candidates.push_back(s);
        }
      }
      if (candidates.empty()) {
        out.deficit_after += floor_copies - copies;
        break;
      }
      const ServerId pick = candidates[repair_rng().uniform(candidates.size())];
      view.client_send(pick, net::StoreEntry{v});
      ++out.replicas_created;
      ++copies;
    }
  }
  return out;
}

}  // namespace pls::core
