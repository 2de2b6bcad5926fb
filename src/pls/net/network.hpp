// The simulated cluster transport.
//
// Delivery model: synchronous to operational servers, and *reliable by
// default* — exactly the abstraction the paper evaluates under. Message
// costs are counted per §6.4: a broadcast costs n processed messages, a
// point-to-point message 1, and a server-to-server RPC 2 (request + reply
// both processed by servers). Replies to *clients* are free because the
// paper counts only messages "received and processed by all the servers".
//
// A configurable LinkModel makes the wire lossy: each attempt may be
// dropped or duplicated, and senders retransmit under the network's
// RetryPolicy (bounded attempts, exponential backoff with jitter). All
// link randomness comes from seeded pls::Rng streams, so lossy runs replay
// deterministically. Sequenced deliveries let servers suppress duplicates
// (Server::handle). Retransmissions are charged like any other wire
// message; see TransportStats for the conservation law.
//
// Multi-tenancy: every Message carries a KeyId and the network keeps one
// *channel* per key — a private link Rng stream plus a TransportStats set.
// Wire traffic is charged twice, to the global counters and to the
// message's channel, so per-key attribution and cluster totals are
// maintained independently (and must agree — a cross-checkable
// conservation law). Each key's link randomness comes from its own stream,
// so one key's loss pattern is unaffected by other tenants' traffic; a
// shared-cluster run therefore reproduces, per key, the exact transport
// behaviour of a standalone single-key cluster seeded with the same
// stream. Channel 0 is the default for single-key and legacy callers and
// is (re)seeded by set_link_model, exactly as the pre-tenancy network was.
//
// An optional deferred mode routes one-way sends through a pls::sim
// Simulator; retransmissions then land after their accumulated backoff
// timeouts, plus an optional exponential latency component. RPCs (and
// hence the Round-Robin delete protocol) require immediate mode.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "pls/common/rng.hpp"
#include "pls/common/types.hpp"
#include "pls/net/failure.hpp"
#include "pls/net/link_model.hpp"
#include "pls/net/message.hpp"
#include "pls/net/retry_policy.hpp"
#include "pls/net/server.hpp"
#include "pls/net/shared_entries.hpp"
#include "pls/net/transport_stats.hpp"
#include "pls/sim/simulator.hpp"
#include "pls/sim/trace.hpp"

namespace pls::wire {
class Writer;
class Reader;
}  // namespace pls::wire

namespace pls::net {

/// Outcome of a client request/reply exchange under the retry policy.
struct CallResult {
  /// The reply, or nullopt when every attempt went unanswered.
  std::optional<Message> reply;
  /// Wire attempts made (1 on a reliable link).
  std::uint32_t attempts = 0;
  /// True when the attempt allowance ran out without a reply — the
  /// client-visible *timeout*. (A down server on a reliable link is
  /// reported as attempts == 1, timed_out == false: the failure is
  /// detectable immediately in that model.)
  bool timed_out = false;
};

class Network {
 public:
  explicit Network(std::shared_ptr<FailureState> failures);

  /// Registers a server; its id must equal the next free slot. The
  /// FailureState must already know about the id (grown via add_server on
  /// it for elastic joins); every per-server stats vector — global, per
  /// channel, and the repair ledger — is extended to cover the new id.
  ServerId add_server(std::unique_ptr<Server> server);

  std::size_t size() const noexcept { return servers_.size(); }
  Server& server(ServerId s);
  const Server& server(ServerId s) const;

  const FailureState& failures() const noexcept { return *failures_; }
  bool is_up(ServerId s) const { return failures_->is_up(s); }
  void fail(ServerId s) { failures_->fail(s); }
  void recover(ServerId s) { failures_->recover(s); }
  /// Recovers every server. All failure operations route through the
  /// network so transport- and failure-side bookkeeping can never diverge.
  void recover_all() { failures_->recover_all(); }

  /// Client -> server one-way message. Returns false (and counts drops)
  /// when the message never got through: server down, or every lossy-link
  /// attempt lost. Under a lossy link the default retry policy governs
  /// retransmission.
  bool client_send(ServerId to, const Message& m);

  /// Client -> server request/reply with an explicit policy and a cap on
  /// attempts (the lookup layer passes min(policy.max_attempts, remaining
  /// per-lookup budget); must be >= 1). The reply is empty when the server
  /// is down or every attempt went unanswered. The delivered request is
  /// charged as one processed message; the reply is free.
  CallResult client_call(ServerId to, const Message& m,
                         const RetryPolicy& policy,
                         std::uint32_t attempt_cap);

  /// Server -> server one-way message (cost 1 per delivered attempt).
  void send(ServerId from, ServerId to, const Message& m);

  /// Server-initiated broadcast, delivered to every operational server
  /// including the sender (the paper's broadcasts cost n).
  void broadcast(ServerId from, const Message& m);

  /// Server -> server request/reply (cost 2 if the callee is up and the
  /// request gets through within the retry allowance).
  std::optional<Message> rpc(ServerId from, ServerId to, const Message& m);

  const TransportStats& stats() const noexcept { return stats_; }

  /// The repair ledger: traffic whose Message::repair flag was set, i.e.
  /// everything the background RepairProcess caused (including server-side
  /// fan-out of repair-triggered protocol messages). Charged *in addition*
  /// to the global and per-key counters — it is an attribution overlay, not
  /// a partition — and obeys the same conservation law on its own.
  const TransportStats& repair_stats() const noexcept { return repair_stats_; }

  void reset_stats() noexcept;

  /// Registers a transport channel for a new tenant key and returns its
  /// KeyId. The channel's link Rng stream is seeded from `link_seed`
  /// (0 maps to 1, as set_link_model does), keeping per-key loss patterns
  /// independent and reproducible. Channel 0 always exists.
  KeyId add_channel(std::uint64_t link_seed);
  std::size_t num_channels() const noexcept { return channels_.size(); }

  /// Reseeds an existing channel's link stream (same 0 -> 1 mapping as
  /// add_channel). Used when a cluster hands channel 0 to its first key.
  void reseed_channel(KeyId key, std::uint64_t link_seed);

  /// Per-key transport counters: the traffic attributed to `key`'s tenant.
  /// Summed over all channels these equal stats() — the tenancy
  /// conservation law (both sides are counted independently).
  const TransportStats& key_stats(KeyId key) const;

  /// Installs an unreliable-link model. Reseeds channel 0's random stream
  /// from `model.seed`, so the same model replays identically. The loss
  /// probabilities apply to every channel (a lossy wire is a property of
  /// the deployment, not of one key); per-key streams are seeded at
  /// add_channel time.
  void set_link_model(const LinkModel& model);
  const LinkModel& link_model() const noexcept { return link_; }

  /// Default retransmission policy for sends/RPCs on a lossy link. Inert
  /// on a reliable link.
  void set_retry_policy(const RetryPolicy& policy);
  const RetryPolicy& retry_policy() const noexcept { return retry_; }

  /// Installs a network partition: messages crossing group boundaries are
  /// dropped (TransportStats::dropped_partition) until clear_partition().
  /// The group vector must not name more servers than the cluster has;
  /// servers that join later default to group 0.
  void set_partition(Partition partition);
  void clear_partition() noexcept { partition_ = Partition{}; }
  const Partition& partition() const noexcept { return partition_; }

  /// Switches one-way delivery to go through `sim` with a fixed latency.
  /// Pass nullptr to restore immediate mode.
  void attach_simulator(sim::Simulator* sim, double latency = 0.0);

  /// Mirrors every delivered or dropped message into `trace` (kMessage /
  /// kFailure records). Pass nullptr to detach. The trace must outlive
  /// the network or be detached first.
  void set_trace(sim::Trace* trace) noexcept { trace_ = trace; }

  /// Snapshot support: serializes the transport's mutable state — the
  /// sequence counter, the global and repair counters, and every channel's
  /// link stream + per-key counters. Requires a quiescent network (no
  /// deferred messages parked mid-flight); load_state restores into a
  /// network with the same channel and server topology. Dedup windows are
  /// deliberately not persisted: next_seq_ is monotonic, so a restored run
  /// never reuses a saved sequence number and empty windows suppress
  /// exactly the same (zero) deliveries.
  void save_state(wire::Writer& w) const;
  void load_state(wire::Reader& r);

  /// Recycled LookupReply payload buffers. Servers answering a lookup
  /// write their sample into a pooled buffer and alias it into the reply,
  /// so a lookup over m servers performs O(1) allocations instead of m.
  EntryBufferPool& reply_pool() noexcept { return reply_pool_; }

 private:
  enum class DropCause { kServerDown, kLink, kPartition };

  /// One key's transport state: a private link-randomness stream and the
  /// traffic attributed to the key. Channel 0 serves single-key clusters
  /// and legacy (unkeyed) callers.
  struct KeyChannel {
    Rng link_rng{1};
    TransportStats stats;
  };

  KeyChannel& channel(KeyId key);

  /// The outcome of attempt(): whether an attempt got through, how many
  /// were made, and the backoff accumulated before the delivered one.
  struct Attempt {
    bool delivered = false;
    std::uint32_t attempts = 0;
    double wait = 0.0;
  };

  /// Puts `m` on the wire towards `to` until an attempt gets through: once
  /// on a reliable link, up to `cap` times on a lossy one, charging every
  /// attempt, drop and timeout. Every send path starts here. `from_group`
  /// is the sender's side of any active partition
  /// (Partition::client_group for client traffic); a severed attempt drops
  /// like one to a dead server. The drop coin is drawn only on a lossy
  /// link towards an up, unsevered target; with `backoff` (one-way sends)
  /// every failed lossy attempt also draws its jittered timeout.
  Attempt attempt(std::uint8_t from_group, ServerId to, const Message& m,
                  std::uint32_t cap, bool backoff);

  /// One-way transmission: attempt() under the default retry policy, then
  /// the delivery and, on a lossy link, the link's duplicate. Returns true
  /// when an attempt was delivered (or scheduled for delivery, in deferred
  /// mode).
  bool transmit(std::uint8_t from_group, ServerId to, const Message& m);

  /// Delivers at once, or in deferred mode after `wait` plus a latency
  /// sample.
  void deliver_after(ServerId to, const Message& m, SeqNo seq, double wait);
  void deliver(ServerId to, const Message& m, SeqNo seq);
  void schedule_delivery(ServerId to, const Message& m, SeqNo seq,
                         double delay);
  void record_drop(ServerId to, const Message& m, DropCause cause);
  double latency_sample(Rng& link_rng);

  /// Parks a deferred message in a recycled pending_ slot and returns its
  /// index. Deferred-delivery events capture the index (4 bytes) instead of
  /// the ~40-byte Message, keeping the capture inside InlineEvent's inline
  /// buffer; the slot returns to pending_free_ when the event fires.
  std::uint32_t acquire_pending(const Message& m);

  /// The repair ledger for `m`, or nullptr for ordinary traffic.
  TransportStats* repair_ledger(const Message& m) noexcept {
    return m.repair ? &repair_stats_ : nullptr;
  }

  std::shared_ptr<FailureState> failures_;
  std::vector<std::unique_ptr<Server>> servers_;
  TransportStats stats_;
  TransportStats repair_stats_;
  std::vector<KeyChannel> channels_;
  LinkModel link_;
  RetryPolicy retry_;
  Partition partition_;
  SeqNo next_seq_ = 0;
  sim::Simulator* sim_ = nullptr;
  double latency_ = 0.0;
  sim::Trace* trace_ = nullptr;
  EntryBufferPool reply_pool_;
  std::vector<Message> pending_;
  std::vector<std::uint32_t> pending_free_;
};

}  // namespace pls::net
