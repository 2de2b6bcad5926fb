#include "pls/core/strategy.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "pls/common/check.hpp"
#include "pls/wire/wire.hpp"

namespace pls::core {

namespace {

void save_rng(wire::Writer& w, const Rng& rng) {
  for (const std::uint64_t word : rng.state()) w.u64le(word);
}

void load_rng(wire::Reader& r, Rng& rng) {
  std::array<std::uint64_t, 4> s;
  for (std::uint64_t& word : s) word = r.u64le();
  rng.set_state(s);
}

}  // namespace

std::string_view to_string(StrategyKind kind) noexcept {
  switch (kind) {
    case StrategyKind::kFullReplication:
      return "FullReplication";
    case StrategyKind::kFixed:
      return "Fixed";
    case StrategyKind::kRandomServer:
      return "RandomServer";
    case StrategyKind::kRoundRobin:
      return "RoundRobin";
    case StrategyKind::kHash:
      return "Hash";
    case StrategyKind::kMultiProbe:
      return "MultiProbe";
  }
  return "?";
}

std::optional<std::string> check_strategy_config(const StrategyConfig& config,
                                                 std::size_t num_servers) {
  const std::string family(to_string(config.kind));
  const bool full = config.kind == StrategyKind::kFullReplication;
  // Fixed-x and RandomServer-x count entries per server; the others count
  // copies per entry.
  const bool per_server = config.kind == StrategyKind::kFixed ||
                          config.kind == StrategyKind::kRandomServer;
  if (num_servers == 0) return "need at least one server";
  if (!full && config.param < 1) {
    return family + (per_server ? " needs x >= 1" : " needs y >= 1");
  }
  if (config.kind == StrategyKind::kRoundRobin && config.param > num_servers) {
    return family + " needs y <= n (distinct copy holders)";
  }
  if (config.kind == StrategyKind::kMultiProbe && config.probes < 1) {
    return family + " needs r >= 1 probes";
  }
  if ((full || per_server) && config.storage_budget != 0) {
    return family + " has no storage-budget mode" +
           (per_server ? " (x is its budget)" : "");
  }
  return std::nullopt;
}

std::size_t Placement::total_entries() const noexcept {
  std::size_t total = 0;
  for (const auto& s : servers) total += s.size();
  return total;
}

std::size_t Placement::distinct_entries() const {
  std::unordered_set<Entry> seen;
  for (const auto& s : servers) seen.insert(s.begin(), s.end());
  return seen.size();
}

void StrategyServer::on_message(const net::Message& m, net::ClusterView& net) {
  (void)net;
  if (const auto* batch = std::get_if<net::StoreBatch>(&m)) {
    store_.assign(batch->entries);
  } else if (const auto* one = std::get_if<net::StoreEntry>(&m)) {
    store_.insert(one->entry);
  } else if (const auto* rem = std::get_if<net::RemoveEntry>(&m)) {
    store_.erase(rem->entry);
  }
  // Other messages are strategy-specific; unhandled ones are ignored, the
  // usual behaviour of a server receiving a protocol message it has no
  // role in (e.g. a RoundRemove for an entry it does not store).
}

net::Message StrategyServer::on_rpc(const net::Message& m,
                                    net::ClusterView& net) {
  if (const auto* req = std::get_if<net::LookupRequest>(&m)) {
    // Allocation-free reply path: sample into the network's pooled buffer
    // and alias it into the reply. The pool hands the same buffer back once
    // the previous reply's readers have dropped it, so steady-state lookups
    // perform no per-reply allocation.
    auto buffer = net.reply_pool().acquire();
    store_.sample_into(req->target, rng_, *buffer);
    return net::LookupReply{net::SharedEntries::alias(std::move(buffer))};
  }
  return net::Ack{};
}

void StrategyServer::save_state(wire::Writer& w) const {
  save_rng(w, rng_);
  const auto span = store_.entries();
  w.varint(span.size());
  for (const Entry v : span) w.varint(v);
}

void StrategyServer::load_state(wire::Reader& r) {
  load_rng(r, rng_);
  // An untrusted count: each entry is a varint of at least one byte.
  const std::uint64_t n = r.varint();
  PLS_CHECK_MSG(r.ok() && n <= r.remaining(), "truncated tenant snapshot");
  std::vector<Entry> entries;
  entries.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) entries.push_back(r.varint());
  PLS_CHECK_MSG(r.ok(), "truncated tenant snapshot");
  // assign() re-inserts in the saved iteration order, so the restored
  // store's entries() span — and thus sample_into's draw order — matches.
  store_.clear();
  store_.shrink_to_fit();
  store_.assign(entries);
}

void Strategy::save_extras(wire::Writer& w) const { (void)w; }

void Strategy::load_extras(wire::Reader& r) { (void)r; }

void Strategy::save_state(wire::Writer& w) const {
  save_rng(w, client_rng_);
  save_rng(w, repair_rng_);
  save_extras(w);
  w.varint(servers_.size());
  for (const StrategyServer* s : servers_) s->save_state(w);
}

void Strategy::load_state(wire::Reader& r) {
  load_rng(r, client_rng_);
  load_rng(r, repair_rng_);
  load_extras(r);
  const std::uint64_t count = r.varint();
  PLS_CHECK_MSG(r.ok() && count == servers_.size(),
                "snapshot tenant count mismatch");
  for (StrategyServer* s : servers_) s->load_state(r);
}

std::uint64_t Strategy::link_stream_seed(const StrategyConfig& config) {
  if (config.link.seed != 0) return config.link.seed;
  return Rng(config.seed).fork(0x117f)();
}

Strategy::Strategy(StrategyConfig config, std::size_t num_servers,
                   std::shared_ptr<net::FailureState> failures)
    : config_(config),
      owned_cluster_(
          std::make_unique<net::Cluster>(num_servers, std::move(failures))),
      cluster_(owned_cluster_.get()),
      client_rng_(Rng(config.seed).fork(0x11)),
      repair_rng_(Rng(config.seed).fork(0x5e9a)) {
  const auto invalid = check_strategy_config(config, num_servers);
  PLS_CHECK_MSG(!invalid, *invalid);
  net::LinkModel link = config.link;
  link.seed = link_stream_seed(config);
  net::Network& net = cluster_->network();
  net.set_link_model(link);
  net.set_retry_policy(config.retry);
  // The private cluster's single key; reuses channel 0, which
  // set_link_model just seeded identically (the reseed is idempotent).
  key_ = cluster_->add_key(link.seed);
  cluster_->add_membership_listener(this);
}

Strategy::Strategy(StrategyConfig config, net::Cluster& cluster)
    : config_(config),
      cluster_(&cluster),
      client_rng_(Rng(config.seed).fork(0x11)),
      repair_rng_(Rng(config.seed).fork(0x5e9a)) {
  // Shared mode: the cluster's (service-wide) link model and retry policy
  // apply; this key only brings its own link-randomness stream.
  const auto invalid = check_strategy_config(config, cluster.size());
  PLS_CHECK_MSG(!invalid, *invalid);
  key_ = cluster_->add_key(link_stream_seed(config));
  cluster_->add_membership_listener(this);
}

Strategy::~Strategy() { cluster_->remove_membership_listener(this); }

ServerId Strategy::add_server() { return cluster_->add_host(); }

void Strategy::remove_server(ServerId s, net::Loss loss) {
  cluster_->remove_host(s, loss);
}

void Strategy::wipe_server(ServerId s) {
  PLS_CHECK(s < servers_.size());
  servers_[s]->wipe();
}

void Strategy::install_tenants() {
  Rng master(config_.seed);
  for (std::size_t i = 0; i < num_servers(); ++i) {
    const auto host = static_cast<ServerId>(i);
    attach_host(host, master.fork(0x1000 + host));
  }
}

void Strategy::on_membership_change(const net::MembershipChange& change) {
  if (change.kind == net::MembershipChange::Kind::kJoin) {
    // Replay install_tenants' fork chain: an (n+1)-server construction
    // hands host i the stream master.fork(0x1000 + i) of a fresh master,
    // in order. Re-running the chain up to the new host gives the newcomer
    // exactly the stream it would have been born with.
    Rng master(config_.seed);
    for (ServerId i = 0; i < change.host; ++i) {
      (void)master.fork(0x1000 + i);
    }
    attach_host(change.host, master.fork(0x1000 + change.host));
  }
  rebalance(change);
  // Migration shrinks stores (the leaver's wipe, entries re-homed off the
  // survivors); return the retired capacity instead of holding peak
  // footprint forever.
  for (StrategyServer* s : servers_) s->store().shrink_to_fit();
}

void Strategy::rebalance(const net::MembershipChange& change) { (void)change; }

std::vector<Entry> Strategy::stored_union() const {
  std::vector<Entry> u;
  for (const StrategyServer* s : servers_) {
    const auto span = s->store().entries();
    u.insert(u.end(), span.begin(), span.end());
  }
  std::sort(u.begin(), u.end());
  u.erase(std::unique(u.begin(), u.end()), u.end());
  return u;
}

std::size_t Strategy::copies_of(Entry v) const {
  std::size_t copies = 0;
  for (const StrategyServer* s : servers_) {
    if (s->store().contains(v)) ++copies;
  }
  return copies;
}

net::RepairOutcome Strategy::repair_mirrored() {
  net::RepairOutcome out;
  const auto u = stored_union();
  net::ClusterView view = repair_view();
  const net::FailureState& fs = network().failures();
  const net::SharedEntries shared(u);
  for (std::size_t rank = 0; rank < fs.member_count(); ++rank) {
    const ServerId s = fs.member_at(rank);
    const EntryStore& store = server_state(s).store();
    std::size_t missing = 0;
    for (Entry v : u) {
      if (!store.contains(v)) ++missing;
    }
    // Exact mirrors are left alone; anything else (missing entries, or
    // stale extras surviving a failure during an update) is resynced.
    if (missing == 0 && store.size() == u.size()) continue;
    if (!fs.is_up(s)) {
      out.deficit_after += missing;
      continue;
    }
    view.client_send(s, net::StoreBatch{shared});
    out.replicas_created += missing;
  }
  return out;
}

ServerId Strategy::random_spare(Entry v) {
  const net::FailureState& fs = network().failures();
  const auto spare = [&](ServerId s) {
    return fs.is_up(s) && !server_state(s).store().contains(v);
  };
  std::size_t count = 0;
  for (std::size_t rank = 0; rank < fs.member_count(); ++rank) {
    if (spare(fs.member_at(rank))) ++count;
  }
  if (count == 0) return kInvalidServer;
  std::size_t pick = repair_rng_.uniform(count);
  for (std::size_t rank = 0;; ++rank) {
    const ServerId s = fs.member_at(rank);
    if (spare(s) && pick-- == 0) return s;
  }
}

void Strategy::restore_floor(Entry v, net::ClusterView& view,
                             net::RepairOutcome& out) {
  const std::size_t floor_copies =
      std::min<std::size_t>(2, network().failures().member_count());
  for (std::size_t copies = copies_of(v); copies < floor_copies; ++copies) {
    const ServerId spare = random_spare(v);
    if (spare == kInvalidServer) {
      out.deficit_after += floor_copies - copies;
      return;
    }
    view.client_send(spare, net::StoreEntry{v});
    ++out.replicas_created;
  }
}

void Strategy::send_union_to(ServerId host) {
  const auto u = stored_union();
  if (u.empty()) return;
  cluster_view().client_send(host, net::StoreBatch{net::SharedEntries(u)});
}

ServerId Strategy::random_up_server() {
  const auto up = network().failures().up();
  if (up.empty()) return kInvalidServer;
  return up[client_rng_.uniform(up.size())];
}

ServerId Strategy::update_target() { return random_up_server(); }

StrategyServer& Strategy::server_state(ServerId s) {
  PLS_CHECK(s < servers_.size());
  return *servers_[s];
}

const StrategyServer& Strategy::server_state(ServerId s) const {
  PLS_CHECK(s < servers_.size());
  return *servers_[s];
}

void Strategy::place(std::span<const Entry> entries) {
  const ServerId target = update_target();
  if (target == kInvalidServer) return;
  // One deep copy into a shared buffer; every fan-out downstream (e.g.
  // Fixed-x's rebroadcast of a prefix) aliases it.
  cluster_view().client_send(target,
                             net::PlaceRequest{net::SharedEntries(entries)});
}

void Strategy::add(Entry v) {
  PLS_CHECK_MSG(config_.storage_budget == 0,
                "storage-budget placements are static-only (no add)");
  const ServerId target = update_target();
  if (target == kInvalidServer) return;
  cluster_view().client_send(target, net::AddRequest{v});
}

void Strategy::erase(Entry v) {
  PLS_CHECK_MSG(config_.storage_budget == 0,
                "storage-budget placements are static-only (no delete)");
  const ServerId target = update_target();
  if (target == kInvalidServer) return;
  cluster_view().client_send(target, net::DeleteRequest{v});
}

Placement Strategy::placement() const {
  Placement p;
  p.servers.reserve(servers_.size());
  for (const StrategyServer* s : servers_) {
    const auto span = s->store().entries();
    p.servers.emplace_back(span.begin(), span.end());
  }
  return p;
}

std::size_t Strategy::storage_cost() const noexcept {
  std::size_t total = 0;
  for (const StrategyServer* s : servers_) total += s->store().size();
  return total;
}

}  // namespace pls::core
