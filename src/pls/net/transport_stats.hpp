// Message accounting for the simulated cluster.
//
// `processed` is the paper's update-overhead metric (§6.4): the number of
// messages received and processed by servers. Per-server counts expose the
// Round-Robin coordinator bottleneck discussed in §6.3.
//
// Under an unreliable link (LinkModel) the counters split further:
// `dropped` decomposes into drops by cause, retransmissions count as fresh
// wire messages (and, when delivered, as processed messages — retries are
// *charged*, per docs/PROTOCOLS.md), and duplicate deliveries are counted
// both when the link injects them (`duplicated`) and when a server's
// sequence-number window discards them (`dup_suppressed`, still processed:
// the server did receive them). The conservation law, in every mode:
//
//   sent + duplicated == processed + dropped
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "pls/common/check.hpp"
#include "pls/common/types.hpp"

namespace pls::net {

struct TransportStats {
  std::uint64_t sent = 0;        ///< messages put on the wire (incl. retries)
  std::uint64_t processed = 0;   ///< messages handled by operational servers
  std::uint64_t dropped = 0;     ///< messages that never reached a server
  std::uint64_t broadcasts = 0;  ///< broadcast operations issued
  std::uint64_t rpcs = 0;        ///< request/reply exchanges

  // --- unreliable-link accounting ---------------------------------------
  std::uint64_t dropped_down = 0;    ///< drops: addressed to a failed server
  std::uint64_t dropped_link = 0;    ///< drops: lost by the unreliable link
  /// Drops: sender and receiver on different sides of an active network
  /// Partition. A third drop cause alongside the two above — `dropped`
  /// always equals their three-way sum — that stays zero unless a
  /// partition is installed, so the pre-partition accounting (and every
  /// golden trace) is unchanged.
  std::uint64_t dropped_partition = 0;
  std::uint64_t duplicated = 0;      ///< extra deliveries injected by the link
  std::uint64_t dup_suppressed = 0;  ///< duplicates discarded by seq dedup
  std::uint64_t retries = 0;         ///< retransmission attempts (2nd and on)
  std::uint64_t timeouts = 0;        ///< attempts that got no reply/ack

  /// The twelve counters above in declaration order, which is also their
  /// snapshot order. reset, merge, operator== and the snapshot codec walk
  /// this list, so a new counter is added here once.
  static constexpr std::array<std::uint64_t TransportStats::*, 12> kCounters{
      &TransportStats::sent,         &TransportStats::processed,
      &TransportStats::dropped,      &TransportStats::broadcasts,
      &TransportStats::rpcs,         &TransportStats::dropped_down,
      &TransportStats::dropped_link, &TransportStats::dropped_partition,
      &TransportStats::duplicated,   &TransportStats::dup_suppressed,
      &TransportStats::retries,      &TransportStats::timeouts};

  /// Per-server processed counts, grown lazily: a counter set holds no
  /// heap until its first per-server charge, and then only up to the
  /// highest server id it ever attributed traffic to. The missing tail is
  /// semantically zero — merge() zero-extends and operator== compares
  /// zero-extended — so a lazily-short vector and an eagerly-sized one
  /// describing the same traffic are equal. Per-key channels rely on this
  /// to stay heap-free until their tenant actually sends something.
  std::vector<std::uint64_t> per_server_processed;

  /// Attributes one processed message to server `s`, growing the
  /// per-server vector on demand.
  void charge_server(ServerId s) {
    if (per_server_processed.size() <= s) {
      per_server_processed.resize(static_cast<std::size_t>(s) + 1, 0);
    }
    ++per_server_processed[s];
  }

  void reset() noexcept {
    for (const auto counter : kCounters) this->*counter = 0;
    per_server_processed.assign(per_server_processed.size(), 0);
  }

  /// The invariant documented above; every quiescent transport satisfies
  /// it (mid-RPC snapshots may not).
  bool conservation_holds() const noexcept {
    return sent + duplicated == processed + dropped;
  }

  /// Folds another cluster's (or trial's) counters into this one:
  /// counter-wise sums, per-server counts added index-wise (the shorter
  /// vector is zero-extended). When both operands satisfied the
  /// conservation law the merged stats are checked to still satisfy it.
  void merge(const TransportStats& other) {
    const bool both_held = conservation_holds() && other.conservation_holds();
    for (const auto counter : kCounters) this->*counter += other.*counter;
    if (per_server_processed.size() < other.per_server_processed.size()) {
      per_server_processed.resize(other.per_server_processed.size(), 0);
    }
    for (std::size_t s = 0; s < other.per_server_processed.size(); ++s) {
      per_server_processed[s] += other.per_server_processed[s];
    }
    if (both_held) {
      PLS_CHECK_MSG(conservation_holds(),
                    "TransportStats::merge broke sent + duplicated == "
                    "processed + dropped");
    }
  }

  /// Largest per-server processed count (the bottleneck server's load).
  std::uint64_t max_per_server() const noexcept {
    std::uint64_t m = 0;
    for (auto c : per_server_processed) m = c > m ? c : m;
    return m;
  }

  /// Counter-identical comparison; the determinism regression tests rely
  /// on two same-seeded runs producing equal stats. Per-server counts are
  /// compared zero-extended, so lazy and eager vectors describing the
  /// same traffic compare equal.
  friend bool operator==(const TransportStats& a, const TransportStats& b) {
    for (const auto counter : kCounters) {
      if (a.*counter != b.*counter) return false;
    }
    const auto& pa = a.per_server_processed;
    const auto& pb = b.per_server_processed;
    const std::size_t n = pa.size() > pb.size() ? pa.size() : pb.size();
    for (std::size_t s = 0; s < n; ++s) {
      const std::uint64_t ca = s < pa.size() ? pa[s] : 0;
      const std::uint64_t cb = s < pb.size() ? pb[s] : 0;
      if (ca != cb) return false;
    }
    return true;
  }
};

}  // namespace pls::net
