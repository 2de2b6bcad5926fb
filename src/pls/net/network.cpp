#include "pls/net/network.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "pls/common/check.hpp"
#include "pls/wire/wire.hpp"

namespace pls::net {

namespace {

void save_transport_stats(wire::Writer& w, const TransportStats& s) {
  for (const auto counter : TransportStats::kCounters) w.varint(s.*counter);
  w.varint(s.per_server_processed.size());
  for (const std::uint64_t c : s.per_server_processed) w.varint(c);
}

void load_transport_stats(wire::Reader& r, TransportStats& s) {
  for (const auto counter : TransportStats::kCounters) s.*counter = r.varint();
  const std::uint64_t n = r.varint();
  PLS_CHECK_MSG(r.ok() && n <= r.remaining(),
                "truncated transport-stats snapshot");
  s.per_server_processed.clear();
  s.per_server_processed.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    s.per_server_processed.push_back(r.varint());
  }
}

/// The ledgers one message is charged to: the cluster totals, its key's
/// channel and, for repair traffic, the repair ledger. Built per charge
/// and never held across a call into a server, which may send and so
/// re-enter the network.
struct Ledgers {
  TransportStats& global;
  TransportStats& key;
  TransportStats* repair;

  void add(std::uint64_t TransportStats::*counter) const {
    ++(global.*counter);
    ++(key.*counter);
    if (repair != nullptr) ++(repair->*counter);
  }

  /// One message processed by server `s`. The global and repair per-server
  /// vectors cover every server (Network::add_server sizes them); a key
  /// channel's grows on demand.
  void processed(ServerId s) const {
    add(&TransportStats::processed);
    ++global.per_server_processed[s];
    key.charge_server(s);
    if (repair != nullptr) ++repair->per_server_processed[s];
  }
};

}  // namespace

const char* message_name(const Message& m) noexcept {
  struct Visitor {
    const char* operator()(const PlaceRequest&) const { return "PlaceRequest"; }
    const char* operator()(const AddRequest&) const { return "AddRequest"; }
    const char* operator()(const DeleteRequest&) const {
      return "DeleteRequest";
    }
    const char* operator()(const StoreBatch&) const { return "StoreBatch"; }
    const char* operator()(const StoreEntry&) const { return "StoreEntry"; }
    const char* operator()(const StoreSlotted&) const { return "StoreSlotted"; }
    const char* operator()(const RemoveEntry&) const { return "RemoveEntry"; }
    const char* operator()(const ReservoirAdd&) const { return "ReservoirAdd"; }
    const char* operator()(const RoundRemove&) const { return "RoundRemove"; }
    const char* operator()(const MigrateRequest&) const {
      return "MigrateRequest";
    }
    const char* operator()(const MigrateReply&) const { return "MigrateReply"; }
    const char* operator()(const PurgeEntry&) const { return "PurgeEntry"; }
    const char* operator()(const LookupRequest&) const {
      return "LookupRequest";
    }
    const char* operator()(const LookupReply&) const { return "LookupReply"; }
    const char* operator()(const RestoreCoordinator&) const {
      return "RestoreCoordinator";
    }
    const char* operator()(const Ack&) const { return "Ack"; }
  };
  return std::visit(Visitor{}, m.payload());
}

Network::Network(std::shared_ptr<FailureState> failures)
    : failures_(std::move(failures)) {
  PLS_CHECK_MSG(failures_ != nullptr, "Network needs a FailureState");
  stats_.per_server_processed.assign(failures_->size(), 0);
  repair_stats_.per_server_processed.assign(failures_->size(), 0);
  // Channel 0: the default key's transport state (single-key clusters and
  // legacy unkeyed callers); reseeded by set_link_model. Channel
  // per-server vectors are lazy (TransportStats::charge_server) so an
  // idle channel holds no heap.
  channels_.emplace_back();
}

inline Network::KeyChannel& Network::channel(KeyId key) {
  PLS_CHECK_MSG(key < channels_.size(), "message addresses an unregistered "
                                        "tenant channel");
  return channels_[key];
}

KeyId Network::add_channel(std::uint64_t link_seed) {
  channels_.emplace_back();
  channels_.back().link_rng = Rng(link_seed == 0 ? 1 : link_seed);
  return static_cast<KeyId>(channels_.size() - 1);
}

void Network::reseed_channel(KeyId key, std::uint64_t link_seed) {
  channel(key).link_rng = Rng(link_seed == 0 ? 1 : link_seed);
}

const TransportStats& Network::key_stats(KeyId key) const {
  PLS_CHECK_MSG(key < channels_.size(), "unregistered tenant channel");
  return channels_[key].stats;
}

void Network::reset_stats() noexcept {
  stats_.reset();
  repair_stats_.reset();
  for (auto& c : channels_) c.stats.reset();
}

void Network::save_state(wire::Writer& w) const {
  // A parked deferred message would be lost by a restore; snapshots are
  // only taken at quiescent points (every pending slot recycled).
  PLS_CHECK_MSG(pending_.size() == pending_free_.size(),
                "cannot snapshot a network with deferred messages in flight");
  w.varint(next_seq_);
  save_transport_stats(w, stats_);
  save_transport_stats(w, repair_stats_);
  w.varint(channels_.size());
  for (const KeyChannel& c : channels_) {
    for (const std::uint64_t word : c.link_rng.state()) w.u64le(word);
    save_transport_stats(w, c.stats);
  }
}

void Network::load_state(wire::Reader& r) {
  next_seq_ = r.varint();
  load_transport_stats(r, stats_);
  load_transport_stats(r, repair_stats_);
  const std::uint64_t channels = r.varint();
  PLS_CHECK_MSG(r.ok() && channels == channels_.size(),
                "snapshot channel count disagrees with this cluster");
  for (KeyChannel& c : channels_) {
    std::array<std::uint64_t, 4> s;
    for (std::uint64_t& word : s) word = r.u64le();
    c.link_rng.set_state(s);
    load_transport_stats(r, c.stats);
  }
  PLS_CHECK_MSG(r.ok(), "truncated network snapshot");
  // The global attribution vectors are kept eagerly sized elsewhere
  // (add_server); restore that invariant regardless of how short the saved
  // run's vectors were.
  stats_.per_server_processed.resize(failures_->size(), 0);
  repair_stats_.per_server_processed.resize(failures_->size(), 0);
}

ServerId Network::add_server(std::unique_ptr<Server> server) {
  PLS_CHECK_MSG(server != nullptr, "null server");
  PLS_CHECK_MSG(server->id() == servers_.size(),
                "servers must be added in id order");
  PLS_CHECK_MSG(servers_.size() < failures_->size(),
                "more servers than the FailureState was sized for");
  servers_.push_back(std::move(server));
  // Elastic join: the eager (global and repair) attribution vectors must
  // cover the new id; per-key channel vectors grow lazily on their next
  // charge_server, so joins cost nothing on idle channels.
  stats_.per_server_processed.resize(failures_->size(), 0);
  repair_stats_.per_server_processed.resize(failures_->size(), 0);
  return static_cast<ServerId>(servers_.size() - 1);
}

Server& Network::server(ServerId s) {
  PLS_CHECK(s < servers_.size());
  return *servers_[s];
}

const Server& Network::server(ServerId s) const {
  PLS_CHECK(s < servers_.size());
  return *servers_[s];
}

void Network::set_link_model(const LinkModel& model) {
  PLS_CHECK_MSG(model.drop_probability >= 0.0 && model.drop_probability <= 1.0,
                "drop probability must be in [0, 1]");
  PLS_CHECK_MSG(
      model.duplicate_probability >= 0.0 && model.duplicate_probability <= 1.0,
      "duplicate probability must be in [0, 1]");
  PLS_CHECK_MSG(model.latency_mean >= 0.0, "latency mean must be >= 0");
  link_ = model;
  channels_[kDefaultKey].link_rng = Rng(model.seed == 0 ? 1 : model.seed);
}

void Network::set_retry_policy(const RetryPolicy& policy) {
  PLS_CHECK_MSG(policy.valid(), "invalid retry policy");
  retry_ = policy;
}

void Network::set_partition(Partition partition) {
  PLS_CHECK_MSG(partition.group_of.size() <= failures_->size(),
                "partition names more servers than the cluster has");
  partition_ = std::move(partition);
}

void Network::deliver(ServerId to, const Message& m, SeqNo seq) {
  Ledgers{stats_, channel(m.key).stats, repair_ledger(m)}.processed(to);
  if (trace_ != nullptr) {
    trace_->record(sim_ != nullptr ? sim_->now() : 0.0,
                   sim::TraceKind::kMessage,
                   std::string(message_name(m)) + " -> server " +
                       std::to_string(to));
  }
  if (!servers_[to]->handle(m, *this, seq)) {
    Ledgers{stats_, channel(m.key).stats, repair_ledger(m)}.add(
        &TransportStats::dup_suppressed);
  }
}

std::uint32_t Network::acquire_pending(const Message& m) {
  if (!pending_free_.empty()) {
    const std::uint32_t slot = pending_free_.back();
    pending_free_.pop_back();
    // Copy-assign into the recycled slot: shared payloads (SharedEntries)
    // only bump refcounts, and same-alternative vectors reuse capacity.
    pending_[slot] = m;
    return slot;
  }
  pending_.push_back(m);
  return static_cast<std::uint32_t>(pending_.size() - 1);
}

void Network::schedule_delivery(ServerId to, const Message& m, SeqNo seq,
                                double delay) {
  const std::uint32_t slot = acquire_pending(m);
  const auto fire = [this, to, seq, slot]() {
    // Move out before delivering: handling may schedule further deferred
    // sends, which can grow pending_ and invalidate references into it.
    Message msg = std::move(pending_[slot]);
    pending_free_.push_back(slot);
    if (failures_->is_up(to)) {
      deliver(to, msg, seq);
    } else {
      record_drop(to, msg, DropCause::kServerDown);
    }
  };
  static_assert(sim::InlineEvent::fits_inline<decltype(fire)>,
                "deferred-delivery capture must stay inline — park large "
                "state in the pending_ pool, not the lambda");
  sim_->schedule_after(delay, fire);
}

void Network::record_drop(ServerId to, const Message& m, DropCause cause) {
  const Ledgers charge{stats_, channel(m.key).stats, repair_ledger(m)};
  charge.add(&TransportStats::dropped);
  charge.add(cause == DropCause::kServerDown ? &TransportStats::dropped_down
             : cause == DropCause::kLink     ? &TransportStats::dropped_link
                                             : &TransportStats::dropped_partition);
  if (trace_ != nullptr) {
    trace_->record(sim_ != nullptr ? sim_->now() : 0.0,
                   sim::TraceKind::kFailure,
                   std::string(message_name(m)) + " dropped at server " +
                       std::to_string(to) +
                       (cause == DropCause::kLink        ? " (link loss)"
                        : cause == DropCause::kPartition ? " (partition)"
                                                         : ""));
  }
}

double Network::latency_sample(Rng& link_rng) {
  double latency = latency_;
  if (link_.latency_mean > 0.0) {
    latency += link_rng.exponential(link_.latency_mean);
  }
  return latency;
}

Network::Attempt Network::attempt(std::uint8_t from_group, ServerId to,
                                  const Message& m, std::uint32_t cap,
                                  bool backoff) {
  // A reliable link makes one attempt: it is the paper's exact transport,
  // in which only a dead or severed target loses a message, and retrying
  // cannot fix that within one operation. Acknowledgements and replies are
  // modelled as reliable, so the first delivered attempt ends the loop.
  // All loss randomness comes from the key's own channel stream, so
  // tenants never perturb one another's replay.
  const bool lossy = link_.lossy();
  const bool severed = partition_.severs(from_group, to);
  KeyChannel& ch = channel(m.key);
  const Ledgers charge{stats_, ch.stats, repair_ledger(m)};
  Attempt out;
  for (std::uint32_t n = 1; n <= (lossy ? cap : 1); ++n) {
    out.attempts = n;
    charge.add(&TransportStats::sent);
    if (n > 1) charge.add(&TransportStats::retries);
    const bool up = failures_->is_up(to);
    // A severed link behaves exactly like a dead server: no attempt can
    // get through, no loss coin is spent, and the sender burns its retry
    // allowance (it cannot tell the difference).
    if (up && !severed &&
        !(lossy && ch.link_rng.bernoulli(link_.drop_probability))) {
      out.delivered = true;
      return out;
    }
    record_drop(to, m,
                !up       ? DropCause::kServerDown
                : severed ? DropCause::kPartition
                          : DropCause::kLink);
    if (lossy) {
      charge.add(&TransportStats::timeouts);
      if (backoff) out.wait += retry_.timeout_for(n, ch.link_rng);
    }
  }
  return out;
}

inline void Network::deliver_after(ServerId to, const Message& m,
                                   SeqNo seq, double wait) {
  if (sim_ != nullptr) {
    schedule_delivery(to, m, seq,
                      wait + latency_sample(channel(m.key).link_rng));
  } else {
    deliver(to, m, seq);
  }
}

bool Network::transmit(std::uint8_t from_group, ServerId to,
                       const Message& m) {
  // One sequence number covers every attempt of a lossy message, so the
  // receiver suppresses redundant deliveries. A reliable link cannot
  // duplicate, so its deliveries stay unsequenced and the dedup window
  // untouched.
  const bool lossy = link_.lossy();
  const SeqNo seq = lossy ? ++next_seq_ : kNoSeq;
  const Attempt sent =
      attempt(from_group, to, m, retry_.max_attempts, /*backoff=*/true);
  if (!sent.delivered) return false;
  deliver_after(to, m, seq, sent.wait);
  if (lossy &&
      channel(m.key).link_rng.bernoulli(link_.duplicate_probability)) {
    Ledgers{stats_, channel(m.key).stats, repair_ledger(m)}.add(
        &TransportStats::duplicated);
    deliver_after(to, m, seq, sent.wait);
  }
  return true;
}

bool Network::client_send(ServerId to, const Message& m) {
  PLS_CHECK(to < servers_.size());
  return transmit(partition_.client_group, to, m);
}

CallResult Network::client_call(ServerId to, const Message& m,
                                const RetryPolicy& policy,
                                std::uint32_t attempt_cap) {
  PLS_CHECK(to < servers_.size());
  PLS_CHECK_MSG(policy.valid(), "invalid retry policy");
  PLS_CHECK_MSG(attempt_cap >= 1, "attempt cap must be >= 1");
  // The client cannot distinguish a lost request from a dead server or a
  // severed link: on a lossy link all surface as a timeout.
  const Attempt sent =
      attempt(partition_.client_group, to, m,
              std::min(policy.max_attempts, attempt_cap), /*backoff=*/false);
  CallResult out;
  out.attempts = sent.attempts;
  if (!sent.delivered) {
    out.timed_out = link_.lossy();
    return out;
  }
  const Ledgers charge{stats_, channel(m.key).stats, repair_ledger(m)};
  charge.add(&TransportStats::rpcs);
  charge.processed(to);
  out.reply = servers_[to]->on_rpc(m, *this);
  return out;
}

void Network::send(ServerId from, ServerId to, const Message& m) {
  PLS_CHECK(from < servers_.size());
  PLS_CHECK(to < servers_.size());
  transmit(partition_.group(from), to, m);
}

void Network::broadcast(ServerId from, const Message& m) {
  PLS_CHECK(from < servers_.size());
  Ledgers{stats_, channel(m.key).stats, repair_ledger(m)}.add(
      &TransportStats::broadcasts);
  const std::uint8_t from_group = partition_.group(from);
  for (ServerId to = 0; to < servers_.size(); ++to) {
    // Gone servers have left the cluster: they are not broadcast targets
    // (and must not inflate the dropped-down bill forever after a leave).
    if (!failures_->is_member(to)) continue;
    transmit(from_group, to, m);
  }
}

std::optional<Message> Network::rpc(ServerId from, ServerId to,
                                    const Message& m) {
  PLS_CHECK(from < servers_.size());
  PLS_CHECK(to < servers_.size());
  PLS_CHECK_MSG(sim_ == nullptr, "RPC requires immediate delivery mode");
  // Request leg, retransmitted under the default policy on a lossy link.
  if (!attempt(partition_.group(from), to, m, retry_.max_attempts,
               /*backoff=*/false)
           .delivered) {
    return std::nullopt;
  }
  // Request processed by the callee...
  const Ledgers request{stats_, channel(m.key).stats, repair_ledger(m)};
  request.add(&TransportStats::rpcs);
  request.processed(to);
  Message reply = servers_[to]->on_rpc(m, *this);
  // The reply leg is attributed to the request's tenant (and repair
  // ledger) regardless of what the callee stamped on the reply payload.
  reply.key = m.key;
  reply.repair = m.repair;
  // ...and the reply processed by the calling *server* (unlike client
  // RPCs). Replies ride the established exchange and are not subject to
  // link loss (connection-oriented model). A partition cannot sever the
  // reply either: groups are symmetric, so a request that got through
  // proves both ends sit on the same side.
  const Ledgers back{stats_, channel(m.key).stats, repair_ledger(m)};
  back.add(&TransportStats::sent);
  if (!failures_->is_up(from)) {
    record_drop(from, reply, DropCause::kServerDown);
    return std::nullopt;
  }
  back.processed(from);
  return reply;
}

void Network::attach_simulator(sim::Simulator* sim, double latency) {
  PLS_CHECK_MSG(latency >= 0.0, "negative latency");
  sim_ = sim;
  latency_ = latency;
}

}  // namespace pls::net
