// Unreliable-link configuration for the simulated transport.
//
// The paper's evaluation assumes messages never get lost, delayed or
// duplicated; a LinkModel lifts that assumption. Every message put on the
// wire is independently lost with `drop_probability`, every delivered
// one-way message is duplicated with `duplicate_probability`, and (in
// deferred mode) per-message latency gets an exponential component with
// mean `latency_mean` on top of the fixed latency configured through
// `Network::attach_simulator`. The draws come from the addressed key's
// own transport channel stream: channel 0 is seeded from `seed`, and a
// service key's channel from Strategy::link_stream_seed, so each key's
// loss pattern is independent of other tenants' traffic and lossy runs
// replay bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pls/common/hashing.hpp"
#include "pls/common/types.hpp"

namespace pls::net {

struct LinkModel {
  /// Per-message probability that the wire loses the message. [0, 1].
  double drop_probability = 0.0;
  /// Per-delivery probability that a one-way message arrives twice.
  /// Request/reply exchanges are connection-oriented and never duplicate.
  /// [0, 1].
  double duplicate_probability = 0.0;
  /// Mean of the exponential latency component added to each deferred
  /// delivery (0 = fixed latency only). Must be >= 0.
  double latency_mean = 0.0;
  /// Seed for the link's private random stream. 0 lets the owning
  /// Strategy derive one from its own seed.
  std::uint64_t seed = 0;

  /// True when the link can lose or duplicate messages; a non-lossy link
  /// takes the exact delivery path (and message accounting) of the
  /// original reliable transport.
  bool lossy() const noexcept {
    return drop_probability > 0.0 || duplicate_probability > 0.0;
  }

  friend bool operator==(const LinkModel&, const LinkModel&) = default;
};

/// A network partition: every server belongs to a group, and messages
/// whose sender and receiver sit in different groups never arrive (they
/// are dropped with cause kPartition and, on a lossy link, burn the full
/// retry allowance exactly like a down server — the sender cannot tell a
/// severed link from a dead peer). Clients live in `client_group`, so the
/// minority side of a split is unreachable from the client's vantage
/// point. Installed and removed via Network::set_partition /
/// clear_partition; an inactive Partition (empty group vector) leaves the
/// transport byte-identical to the pre-partition network.
struct Partition {
  /// group_of[s] is server s's side of the split. Empty = no partition.
  /// Servers added after the partition was installed (elastic joins)
  /// default to group 0.
  std::vector<std::uint8_t> group_of;
  /// The group the client-side (lookup issuers) is connected to.
  std::uint8_t client_group = 0;

  bool active() const noexcept { return !group_of.empty(); }

  std::uint8_t group(ServerId s) const noexcept {
    return s < group_of.size() ? group_of[s] : 0;
  }

  /// True when a message from `from_group` cannot reach server `to`.
  bool severs(std::uint8_t from_group, ServerId to) const noexcept {
    return active() && from_group != group(to);
  }

  friend bool operator==(const Partition&, const Partition&) = default;
};

/// A deterministic two-sided split of [0, num_servers) derived from
/// `seed`: each server lands on side 0/1 by an avalanche-mixed coin flip,
/// with a fix-up guaranteeing both sides are non-empty (server 0 forced to
/// group 0, the last server to group 1) so a "partition" never degenerates
/// into a rename of the whole cluster. Workload generators emit the seed
/// in their partition events; replaying the seed reproduces the split.
inline Partition split_partition(std::size_t num_servers, std::uint64_t seed) {
  Partition p;
  p.group_of.resize(num_servers, 0);
  for (std::size_t s = 0; s < num_servers; ++s) {
    p.group_of[s] = static_cast<std::uint8_t>(mix_hash(s, seed) & 1u);
  }
  if (num_servers >= 2) {
    p.group_of.front() = 0;
    p.group_of.back() = 1;
  }
  return p;
}

}  // namespace pls::net
