// Abstract server: a participant in the simulated cluster.
//
// Concrete servers (one subclass per placement strategy, in pls::core)
// implement the message-handling logic of §3 and §5. The base class knows
// nothing about entry storage; it is the transport endpoint, including the
// duplicate-suppression window that makes one-way update handling
// idempotent when the link duplicates deliveries.
#pragma once

#include <cstdint>
#include <vector>

#include "pls/common/flat_map.hpp"
#include "pls/common/types.hpp"
#include "pls/net/message.hpp"

namespace pls::net {

class Network;

/// Per-delivery sequence number assigned by the Network. Retransmissions
/// and link duplicates of the same logical message share one SeqNo; 0 means
/// "unsequenced" (reliable-link deliveries, where duplicates cannot occur).
using SeqNo = std::uint64_t;
inline constexpr SeqNo kNoSeq = 0;

class Server {
 public:
  explicit Server(ServerId id) : id_(id) {}
  virtual ~Server() = default;

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  ServerId id() const noexcept { return id_; }

  /// Transport entry point for one-way deliveries: suppresses a sequenced
  /// delivery whose number is among the last kDedupWindow distinct ones
  /// first delivered here (kNoSeq skips the window), then dispatches to
  /// on_message. Returns false when the delivery was a duplicate and got
  /// discarded.
  bool handle(const Message& m, Network& net, SeqNo seq);

  /// Handles a one-way message. May send further messages through `net`.
  virtual void on_message(const Message& m, Network& net) = 0;

  /// Handles a request/reply exchange; must return the reply message.
  virtual Message on_rpc(const Message& m, Network& net) = 0;

  std::uint64_t duplicates_discarded() const noexcept {
    return duplicates_discarded_;
  }

 private:
  /// Sliding window of the last kDedupWindow distinct sequence numbers,
  /// in first-delivered order (deferred mode can reorder deliveries, so
  /// this is not numeric order). Duplicates arrive within one
  /// retransmission span of the original, so a bounded window is safe;
  /// bounding it keeps long churn runs O(1) in memory. Both containers
  /// grow with use, so a server that sees little sequenced traffic stays
  /// small, and a full window allocates nothing.
  static constexpr std::size_t kDedupWindow = 4096;

  ServerId id_;
  FlatSet<SeqNo> seen_;
  /// Ring of seen_'s members in first-delivered order; once it holds
  /// kDedupWindow numbers, `oldest_` indexes the next to evict.
  std::vector<SeqNo> seen_order_;
  std::size_t oldest_ = 0;
  std::uint64_t duplicates_discarded_ = 0;
};

}  // namespace pls::net
