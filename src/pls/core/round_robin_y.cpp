#include "pls/core/round_robin_y.hpp"

#include <algorithm>
#include <vector>

#include "pls/common/check.hpp"
#include "pls/wire/wire.hpp"

namespace pls::core {

namespace {

/// Drains a SmallMap into a vector sorted by key: the serialization
/// contract — for_each order is table layout, which must never reach the
/// snapshot bytes.
template <typename Key, typename Value, std::size_t N>
std::vector<std::pair<Key, Value>> sorted_pairs(
    const SmallMap<Key, Value, N>& map) {
  std::vector<std::pair<Key, Value>> out;
  out.reserve(map.size());
  map.for_each([&out](Key k, const Value& v) { out.emplace_back(k, v); });
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace

void RoundRobinServer::save_state(wire::Writer& w) const {
  StrategyServer::save_state(w);
  const auto slots = sorted_pairs(slot_of_);
  w.varint(slots.size());
  for (const auto& [v, slot] : slots) {
    w.varint(v);
    w.varint(slot);
  }
  const auto at_slot = sorted_pairs(entry_at_slot_);
  w.varint(at_slot.size());
  for (const auto& [slot, v] : at_slot) {
    w.varint(slot);
    w.varint(v);
  }
  const auto migrations = sorted_pairs(migrations_);
  w.varint(migrations.size());
  for (const auto& [v, m] : migrations) {
    w.varint(v);
    w.varint(m.requests);
    w.varint(m.replacement);
    w.u8(m.valid ? 1 : 0);
  }
  w.varint(head_);
  w.varint(tail_);
  std::vector<Entry> live;
  live.reserve(live_.size());
  live_.for_each([&live](Entry v) { live.push_back(v); });
  std::sort(live.begin(), live.end());
  w.varint(live.size());
  for (const Entry v : live) w.varint(v);
}

void RoundRobinServer::load_state(wire::Reader& r) {
  StrategyServer::load_state(r);
  slot_of_.clear();
  entry_at_slot_.clear();
  migrations_.clear();
  live_.clear();
  // Every count below is untrusted: it must fit the bytes left, at the
  // least bytes per record, before any loop runs on it.
  const auto count = [&r](std::size_t min_record_bytes) {
    const std::uint64_t n = r.varint();
    PLS_CHECK_MSG(r.ok() && n <= r.remaining() / min_record_bytes,
                  "truncated RoundRobin tenant snapshot");
    return n;
  };
  const std::uint64_t slots = count(2);
  for (std::uint64_t i = 0; i < slots && r.ok(); ++i) {
    const Entry v = r.varint();
    slot_of_.insert_or_assign(v, r.varint());
  }
  const std::uint64_t at_slot = count(2);
  for (std::uint64_t i = 0; i < at_slot && r.ok(); ++i) {
    const std::uint64_t slot = r.varint();
    entry_at_slot_.insert_or_assign(slot, r.varint());
  }
  const std::uint64_t migrations = count(4);
  for (std::uint64_t i = 0; i < migrations && r.ok(); ++i) {
    const Entry v = r.varint();
    MigrationState m;
    m.requests = static_cast<std::size_t>(r.varint());
    m.replacement = r.varint();
    m.valid = r.u8() != 0;
    migrations_.insert_or_assign(v, m);
  }
  head_ = r.varint();
  tail_ = r.varint();
  const std::uint64_t live = count(1);
  for (std::uint64_t i = 0; i < live && r.ok(); ++i) live_.insert(r.varint());
  PLS_CHECK_MSG(r.ok(), "truncated RoundRobin tenant snapshot");
}

std::optional<std::uint64_t> RoundRobinServer::slot_of(Entry v) const {
  const std::uint64_t* slot = slot_of_.find(v);
  if (slot == nullptr) return std::nullopt;
  return *slot;
}

void RoundRobinServer::set_slot(Entry v, std::uint64_t slot) {
  store().insert(v);
  if (const std::uint64_t* old = slot_of_.find(v)) entry_at_slot_.erase(*old);
  slot_of_.insert_or_assign(v, slot);
  entry_at_slot_.insert_or_assign(slot, v);
}

void RoundRobinServer::drop_entry(Entry v) {
  store().erase(v);
  if (const std::uint64_t* slot = slot_of_.find(v)) {
    entry_at_slot_.erase(*slot);
    slot_of_.erase(v);
  }
}

void RoundRobinServer::wipe() {
  StrategyServer::wipe();
  slot_of_.clear();
  entry_at_slot_.clear();
  migrations_.clear();
  head_ = tail_ = 0;
  live_.clear();
}

void RoundRobinServer::handle_place(const net::PlaceRequest& place,
                                    net::ClusterView& net) {
  // Reset the whole cluster, then hand out slot i to the members at ranks
  // i..i+c-1 (rank == id until a server permanently leaves).
  net.broadcast(id(), net::StoreBatch{});
  const std::size_t n = net.member_count();
  const std::size_t h = place.entries.size();
  for (std::size_t i = 0; i < h; ++i) {
    std::size_t copies = y_;
    if (storage_budget_ != 0) {
      copies = storage_budget_ / h + (i < storage_budget_ % h ? 1 : 0);
      PLS_CHECK_MSG(copies <= n, "storage budget would duplicate per server");
    }
    for (std::size_t j = 0; j < copies; ++j) {
      const ServerId target = net.member((i + j) % n);
      net.send(id(), target, net::StoreSlotted{place.entries[i], i});
    }
  }
  head_ = 0;
  tail_ = h;
  live_.clear();
  live_.reserve(h);
  for (Entry v : place.entries) live_.insert(v);
}

void RoundRobinServer::handle_remove_broadcast(const net::RoundRemove& rm,
                                               net::ClusterView& net) {
  if (!store().contains(rm.entry)) return;
  const std::uint64_t p_v = slot_of_.at(rm.entry);
  drop_entry(rm.entry);
  if (p_v == rm.head_slot) return;  // deleting the head entry: no migration
  const ServerId head_server = net.member(rm.head_slot % net.member_count());
  const auto reply =
      net.rpc(id(), head_server, net::MigrateRequest{rm.entry, rm.head_slot});
  if (!reply.has_value()) return;  // head server down: hole stays (documented)
  const auto& mig = std::get<net::MigrateReply>(*reply);
  if (mig.valid) set_slot(mig.replacement, p_v);
}

void RoundRobinServer::on_message(const net::Message& m,
                                  net::ClusterView& net) {
  if (const auto* place = std::get_if<net::PlaceRequest>(&m)) {
    handle_place(*place, net);
  } else if (const auto* batch = std::get_if<net::StoreBatch>(&m)) {
    // Used only as the cluster-wide reset preceding redistribution.
    store().assign(batch->entries);
    slot_of_.clear();
    entry_at_slot_.clear();
    migrations_.clear();
    head_ = tail_ = 0;
    live_.clear();
  } else if (const auto* slotted = std::get_if<net::StoreSlotted>(&m)) {
    set_slot(slotted->entry, slotted->slot);
  } else if (const auto* add = std::get_if<net::AddRequest>(&m)) {
    // Coordinator role: assign slot `tail`, fan out y copies (§5.4).
    if (live_.contains(add->entry)) return;
    const std::uint64_t slot = tail_++;
    live_.insert(add->entry);
    const std::size_t n = net.member_count();
    for (std::size_t j = 0; j < y_; ++j) {
      const ServerId target = net.member((slot + j) % n);
      net.send(id(), target, net::StoreSlotted{add->entry, slot});
    }
  } else if (const auto* del = std::get_if<net::DeleteRequest>(&m)) {
    // Coordinator role: locate v by broadcast; holders plug the hole with
    // the head-slot entry; head advances (Fig 10/11).
    if (!live_.contains(del->entry)) return;
    live_.erase(del->entry);
    net.broadcast(id(), net::RoundRemove{del->entry, head_});
    ++head_;
  } else if (const auto* rm = std::get_if<net::RoundRemove>(&m)) {
    handle_remove_broadcast(*rm, net);
  } else if (const auto* purge = std::get_if<net::PurgeEntry>(&m)) {
    // Drop the migrated entry's *old* copy only: holders that already
    // re-homed it at the deleted entry's slot fail the guard and keep it.
    const std::uint64_t* slot = slot_of_.find(purge->entry);
    if (slot != nullptr && *slot == purge->old_slot) {
      drop_entry(purge->entry);
    }
  } else if (const auto* rem = std::get_if<net::RemoveEntry>(&m)) {
    drop_entry(rem->entry);
  } else if (const auto* rc = std::get_if<net::RestoreCoordinator>(&m)) {
    // Repair rebuilt the coordinator metadata from the surviving slot map.
    head_ = rc->head;
    tail_ = rc->tail;
    live_.clear();
    live_.reserve(rc->entries.size());
    for (Entry v : rc->entries) live_.insert(v);
  } else {
    StrategyServer::on_message(m, net);
  }
}

net::Message RoundRobinServer::on_rpc(const net::Message& m,
                                      net::ClusterView& net) {
  if (const auto* req = std::get_if<net::MigrateRequest>(&m)) {
    // Head-slot server role (Fig 11's migrate()): pick R[v] once, count
    // requests in M[v], purge the old copies after the y-th request.
    auto [slot, inserted] = migrations_.try_emplace(req->entry);
    if (inserted) {
      if (const Entry* at = entry_at_slot_.find(req->head_slot)) {
        slot->replacement = *at;
        slot->valid = true;
      }
    }
    ++slot->requests;
    // Copy out before sending: the purge fan-out may re-enter this server
    // and the table pointer does not survive mutation.
    const MigrationState st = *slot;
    net::MigrateReply reply{st.replacement, st.valid};
    if (st.requests >= y_) {
      if (st.valid) {
        const std::size_t n = net.member_count();
        for (std::size_t j = 0; j < y_; ++j) {
          const ServerId target = net.member((req->head_slot + j) % n);
          net.send(id(), target,
                   net::PurgeEntry{st.replacement, req->head_slot});
        }
      }
      migrations_.erase(req->entry);
    }
    return reply;
  }
  return StrategyServer::on_rpc(m, net);
}

RoundRobinStrategy::RoundRobinStrategy(
    StrategyConfig config, std::size_t num_servers,
    std::shared_ptr<net::FailureState> failures)
    : Strategy(config, num_servers, std::move(failures)) {
  install_tenants();
}

RoundRobinStrategy::RoundRobinStrategy(StrategyConfig config,
                                       net::Cluster& cluster)
    : Strategy(config, cluster) {
  install_tenants();
}

LookupResult RoundRobinStrategy::partial_lookup(std::size_t t) {
  return stride_order_lookup(cluster_view(), client_rng(), t, y(),
                             retry_policy());
}

ServerId RoundRobinStrategy::coordinator() const {
  return network().failures().member_at(0);
}

std::uint64_t RoundRobinStrategy::head() const {
  return static_cast<const RoundRobinServer&>(server_state(coordinator()))
      .head();
}

std::uint64_t RoundRobinStrategy::tail() const {
  return static_cast<const RoundRobinServer&>(server_state(coordinator()))
      .tail();
}

ServerId RoundRobinStrategy::update_target() {
  // §5.4: every update goes through the coordinator. If it is down the
  // update cannot proceed (the bottleneck the paper criticises).
  const ServerId c = coordinator();
  return network().is_up(c) ? c : kInvalidServer;
}

void RoundRobinStrategy::attach_host(ServerId host, Rng rng) {
  register_tenant<RoundRobinServer>(host, rng, config().param,
                                    config().storage_budget);
}

std::vector<std::pair<std::uint64_t, Entry>> RoundRobinStrategy::collect_slots()
    const {
  // Every copy is a (slot, entry) vote; a migration in progress or a stale
  // store can disagree with its peers, so reconstruction is by vote.
  std::vector<std::pair<std::uint64_t, Entry>> votes;
  for (const StrategyServer* s : servers_) {
    const auto* rr = static_cast<const RoundRobinServer*>(s);
    for (Entry v : rr->store().entries()) {
      if (const auto slot = rr->slot_of(v)) votes.emplace_back(*slot, v);
    }
  }
  std::sort(votes.begin(), votes.end());
  // Per-slot majority, smaller entry breaking ties (votes are sorted, so
  // the first candidate with the top count wins).
  std::vector<std::pair<std::uint64_t, Entry>> slots;
  for (std::size_t i = 0; i < votes.size();) {
    const std::uint64_t slot = votes[i].first;
    Entry best = votes[i].second;
    std::size_t best_count = 0;
    std::size_t j = i;
    while (j < votes.size() && votes[j].first == slot) {
      const Entry v = votes[j].second;
      std::size_t count = 0;
      while (j < votes.size() && votes[j].first == slot &&
             votes[j].second == v) {
        ++count;
        ++j;
      }
      if (count > best_count) {
        best_count = count;
        best = v;
      }
    }
    slots.emplace_back(slot, best);
    i = j;
  }
  // Per-entry dedup: migration moves an entry from the head slot up to the
  // deleted slot, so when stale low-slot copies survive, the larger slot is
  // the current home.
  std::sort(slots.begin(), slots.end(),
            [](const auto& a, const auto& b) {
              return a.second != b.second ? a.second < b.second
                                          : a.first < b.first;
            });
  std::vector<std::pair<std::uint64_t, Entry>> out;
  for (std::size_t i = 0; i < slots.size();) {
    std::size_t j = i;
    while (j < slots.size() && slots[j].second == slots[i].second) ++j;
    out.push_back(slots[j - 1]);  // max slot of this entry's group
    i = j;
  }
  std::sort(out.begin(), out.end());
  return out;
}

void RoundRobinStrategy::rebalance(const net::MembershipChange& change) {
  (void)change;
  // Budgeted placements are static-only; and with no coordinator up the
  // re-place must wait (repair retries when it recovers).
  if (config().storage_budget != 0) return;
  const ServerId target = update_target();
  if (target == kInvalidServer) return;
  const auto slots = collect_slots();
  std::vector<Entry> entries;
  entries.reserve(slots.size());
  for (const auto& [slot, v] : slots) entries.push_back(v);
  // Full re-place in slot order: renumbers the survivors 0..k-1 and deals
  // them over the new member list, rebuilding the coordinator state.
  cluster_view().client_send(target,
                             net::PlaceRequest{net::SharedEntries(entries)});
}

net::RepairOutcome RoundRobinStrategy::repair_once() {
  net::RepairOutcome out;
  if (config().storage_budget != 0) return out;
  const net::FailureState& fs = network().failures();
  net::ClusterView view = repair_view();
  const auto slots = collect_slots();
  const std::size_t mc = fs.member_count();
  const std::size_t copies = std::min(config().param, mc);
  // Re-home every reconstructed (slot, entry) onto its y holders.
  for (const auto& [slot, v] : slots) {
    for (std::size_t j = 0; j < copies; ++j) {
      const ServerId s = fs.member_at((slot + j) % mc);
      const auto& rr = static_cast<const RoundRobinServer&>(server_state(s));
      const auto cur = rr.slot_of(v);
      if (cur.has_value() && *cur == slot) continue;
      if (!fs.is_up(s)) {
        ++out.deficit_after;
        continue;
      }
      view.client_send(s, net::StoreSlotted{v, slot});
      ++out.replicas_created;
    }
  }
  // Verify the coordinator metadata against the reconstruction. Entries it
  // lists as live with no surviving copy are permanently lost — the only
  // strategy able to *prove* a loss; restoring the metadata drops them so
  // each is counted once.
  const ServerId coord = fs.member_at(0);
  const auto& c = static_cast<const RoundRobinServer&>(server_state(coord));
  std::uint64_t rhead = 0;
  std::uint64_t rtail = 0;
  if (!slots.empty()) {
    rhead = slots.front().first;
    rtail = slots.back().first + 1;
  }
  std::size_t matched = 0;
  for (const auto& [slot, v] : slots) {
    if (c.is_live(v)) ++matched;
  }
  const std::uint64_t lost = c.live_count() - matched;
  bool mismatch = lost != 0 || c.head() != rhead || c.tail() != rtail ||
                  c.live_count() != slots.size();
  if (!mismatch) {
    for (const auto& [slot, v] : slots) {
      if (!c.is_live(v)) {
        mismatch = true;
        break;
      }
    }
  }
  if (mismatch) {
    if (!fs.is_up(coord)) {
      ++out.deficit_after;
    } else {
      out.unrecoverable += lost;
      std::vector<Entry> entries;
      entries.reserve(slots.size());
      for (const auto& [slot, v] : slots) entries.push_back(v);
      view.client_send(coord,
                       net::RestoreCoordinator{net::SharedEntries(entries),
                                               rhead, rtail});
    }
  }
  return out;
}

}  // namespace pls::core
