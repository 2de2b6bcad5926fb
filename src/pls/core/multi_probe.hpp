// Multi-probe consistent-hash placement (the sixth strategy family).
//
// Each member server owns ONE stable point on a 2^64 hash ring, derived
// from its id and never re-keyed across membership changes. An entry's
// j-th replica group draws r independent probe hashes and is owned by the
// member whose point lies closest clockwise-ahead of any probe (exact ties
// go to the earliest probe, then the lowest member rank). Replica groups
// with distinct j draw distinct probe streams, so y groups spread like y
// quasi-independent hash functions, deduplicated per entry exactly as
// Hash-y deduplicates colliding functions.
//
// The family needs no per-key slot tables and no virtual-node rings —
// placement state is four 64-bit words shared by every tenant — yet a
// membership change moves only the entries whose closest point changed:
// ~1/n of the corpus on a single join or leave, against Hash-y's full
// re-key. Larger r tightens the peak-to-average storage ratio (r = 21
// lands near 1.05x in the multi-probe literature); r = 1 degenerates to
// classic one-point-per-node consistent hashing with its log(n) skew.
#pragma once

#include "pls/common/hashing.hpp"
#include "pls/core/strategy.hpp"
#include "pls/net/failure.hpp"

namespace pls::core {

/// The shared placement rule: stable per-server ring points plus r probe
/// streams per replica group. Trivially copyable (four words) so every
/// tenant embeds its own copy without heap or sharing machinery.
struct MultiProbePlacement {
  std::uint64_t point_seed = 0;  ///< seeds the per-server ring points
  std::uint64_t probe_seed = 0;  ///< seeds the per-(group, probe) streams
  std::uint32_t probes = 1;      ///< r: probes drawn per replica group
  std::uint32_t groups = 1;      ///< y: replica groups per entry

  /// Server `s`'s ring point. A pure function of (id, point_seed): it
  /// survives joins, leaves, and epochs unchanged — that stability is what
  /// bounds migration to the ~1/n of entries whose nearest point moved.
  std::uint64_t point(ServerId s) const noexcept {
    return mix_hash(static_cast<std::uint64_t>(s) + 1, point_seed);
  }

  /// Probe `i` of replica group `j` for entry `v`.
  std::uint64_t probe(Entry v, std::uint32_t group,
                      std::uint32_t i) const noexcept {
    const std::uint64_t salt =
        mix_hash((static_cast<std::uint64_t>(group) << 32) | i, probe_seed);
    return mix_hash(v, salt);
  }

  /// The member owning replica group `group` of `v`: over all r probes and
  /// all current members, the (probe, point) pair with the smallest
  /// clockwise distance from probe to point wins. Exact ties keep the first
  /// minimal pair in probe-major, rank-minor order: the earliest probe
  /// wins, then the lowest member rank. Each member's point is hashed once
  /// per call (n + 2r hashes, not r(n + 2)). Requires at least one member.
  ServerId owner(Entry v, std::uint32_t group,
                 const net::FailureState& fs) const;

  /// The first `copies` replica-group owners of `v`, deduplicated in group
  /// order (mirrors Hash-y's collision dedup). Appends into `out`. The
  /// members' points are hashed once for all `copies` groups.
  void targets(Entry v, std::size_t copies, const net::FailureState& fs,
               TargetList& out) const;
};

class MultiProbeServer final : public StrategyServer {
 public:
  MultiProbeServer(ServerId id, Rng rng, MultiProbePlacement placement,
                   std::size_t storage_budget)
      : StrategyServer(id, rng),
        placement_(placement),
        storage_budget_(storage_budget) {}

  void on_message(const net::Message& m, net::ClusterView& net) override;

 private:
  /// Sends Msg{v} to the first `copies` replica-group owners of `v`:
  /// place, add and delete share this fan-out.
  template <typename Msg>
  void send_to_targets(Entry v, std::size_t copies, net::ClusterView& net);

  MultiProbePlacement placement_;
  std::size_t storage_budget_;
};

class MultiProbeStrategy final : public Strategy {
 public:
  MultiProbeStrategy(StrategyConfig config, std::size_t num_servers,
                     std::shared_ptr<net::FailureState> failures);
  /// Shared-cluster mode: one more tenant key on `cluster`'s hosts.
  MultiProbeStrategy(StrategyConfig config, net::Cluster& cluster);

  LookupResult partial_lookup(std::size_t t) override;

  std::size_t y() const noexcept { return config().param; }
  std::size_t probes() const noexcept { return config().probes; }
  const MultiProbePlacement& probe_placement() const noexcept {
    return placement_;
  }

  /// Repair rule mirrors Hash-y: every union entry is restored onto its y
  /// group owners; single-copy entries (group collisions) get a spare so
  /// the next wipe cannot be fatal. No-op for budgeted placements.
  net::RepairOutcome repair_once() override;

 protected:
  void attach_host(ServerId host, Rng rng) override;
  /// No re-keying: ring points are stable, so the want/has diff touches
  /// only entries whose nearest point changed (~1/n per join or leave).
  void rebalance(const net::MembershipChange& change) override;

  /// Snapshot: the placement is a pure function of the config, so nothing
  /// is restored — the four words are written and verified on load as a
  /// cheap fingerprint against config drift.
  void save_extras(wire::Writer& w) const override;
  void load_extras(wire::Reader& r) override;

 private:
  void build();

  MultiProbePlacement placement_;
};

}  // namespace pls::core
