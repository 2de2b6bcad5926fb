// Replica-group placement: entry v is stored on the distinct owners of its
// first y replica groups. Two families share this one implementation and
// differ only in the rule that names a group's owner:
//
//   * Hash-y (§3.5/§5.5): group j of v is owned by member rank f_j(v), one
//     of y seeded hash functions over the current member list. Updates are
//     point-to-point (no broadcasts, no coordinator): the cheapest scheme
//     under churn, at the price of unbalanced per-server loads and hence a
//     lookup cost slightly above 1 even for small t. Colliding functions
//     deduplicate, so expected storage is h*n*(1-(1-1/n)^y) (Table 1). A
//     membership change re-keys all y functions, so most entries move.
//   * MultiProbe (the extension family; Appleton & O'Reilly, multi-probe
//     consistent hashing): each member owns ONE stable point on a 2^64
//     ring, derived from its id and never re-keyed. Group j of v draws r
//     independent probe hashes and is owned by the member whose point lies
//     closest clockwise-ahead of any probe (exact ties go to the earliest
//     probe, then the lowest member rank). A membership change moves only
//     the entries whose closest point changed: ~1/n of the corpus on a
//     single join or leave. Larger r tightens the peak-to-average storage
//     ratio (r = 21 lands near 1.05x in the multi-probe literature); r = 1
//     is classic one-point-per-node consistent hashing with its log(n) skew.
//
// Shared by both: the place/add/delete fan-out with the §4.3 budget split,
// the random-order lookup, the want/has migration on joins and leaves, and
// the repair pass with its two-copy floor. A rule is built from the
// config and the member list, and supplies four things:
//
//   targets(v, copies, fs, out)  the first `copies` group owners of v, as
//                                member ids, deduplicated in group order;
//   rekey(config, fs)            runs on every membership change, before
//                                any data moves;
//   save(w) / load(r, config, fs)  the snapshot extras.
//
// The strategy holds its rule once; every tenant borrows it through a
// pointer (the strategy outlives every call into its tenants).
#pragma once

#include "pls/common/hashing.hpp"
#include "pls/core/strategy.hpp"
#include "pls/net/failure.hpp"

namespace pls::core {

/// Hash-y's owner rule: y seeded hash functions onto the member ranks.
class HashRule {
 public:
  /// The construction family: y functions over the current member count.
  HashRule(const StrategyConfig& config, const net::FailureState& fs);

  /// Function j's rank for v, mapped to its member id. The rank-to-id map
  /// is one-to-one, so collisions deduplicate exactly as ranks would.
  void targets(Entry v, std::size_t copies, const net::FailureState& fs,
               TargetList& out) const;

  /// Draws a fresh family over the new member count. The seed folds in the
  /// failure epoch, so successive changes draw fresh functions, yet a run
  /// replaying the same events re-derives them exactly.
  void rekey(const StrategyConfig& config, const net::FailureState& fs);

  /// Snapshot: the family's server count and raw per-function seeds. The
  /// rekey-at-epoch history is not derivable from the config, so the seeds
  /// themselves are persisted.
  void save(wire::Writer& w) const;
  void load(wire::Reader& r, const StrategyConfig& config,
            const net::FailureState& fs);

 private:
  HashFamily family_;
};

/// MultiProbe's owner rule: stable per-server ring points plus r probe
/// streams per replica group. Four words, a pure function of the config.
struct MultiProbeRule {
  std::uint64_t point_seed = 0;  ///< seeds the per-server ring points
  std::uint64_t probe_seed = 0;  ///< seeds the per-(group, probe) streams
  std::uint32_t probes = 1;      ///< r: probes drawn per replica group
  std::uint32_t groups = 1;      ///< y: replica groups per entry

  MultiProbeRule(const StrategyConfig& config, const net::FailureState& fs);

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
  /// order. The members' points are hashed once for all `copies` groups.
  void targets(Entry v, std::size_t copies, const net::FailureState& fs,
               TargetList& out) const;

  /// No re-keying: ring points are stable, so after a membership change
  /// the want/has diff touches only entries whose nearest point changed.
  void rekey(const StrategyConfig&, const net::FailureState&) {}

  /// Snapshot: the four words, written and verified on load as a cheap
  /// fingerprint against config drift (nothing needs restoring).
  void save(wire::Writer& w) const;
  void load(wire::Reader& r, const StrategyConfig& config,
            const net::FailureState& fs);
};

/// One key's replica-group placement under `Rule`. Its tenants
/// (ReplicaGroupServer, in the source file) fan place, add and delete out
/// to the rule's owners.
template <typename Rule>
class ReplicaGroupStrategy final : public Strategy {
 public:
  ReplicaGroupStrategy(StrategyConfig config, std::size_t num_servers,
                       std::shared_ptr<net::FailureState> failures);
  /// Shared-cluster mode: one more tenant key on `cluster`'s hosts.
  ReplicaGroupStrategy(StrategyConfig config, net::Cluster& cluster);

  LookupResult partial_lookup(std::size_t t) override;

  std::size_t y() const noexcept { return config().param; }
  const Rule& rule() const noexcept { return rule_; }

  /// Repair rule: every union entry is restored onto its y group owners;
  /// single-copy entries (every group on one server) additionally get a
  /// spare so the next wipe cannot be fatal. No-op for budgeted (static)
  /// placements.
  net::RepairOutcome repair_once() override;

 protected:
  void attach_host(ServerId host, Rng rng) override;
  /// Re-keys the rule over the new member list, then migrates every entry
  /// to its owners. A budgeted placement re-keys but moves no data: its
  /// per-entry copy counts depend on the original place() order.
  void rebalance(const net::MembershipChange& change) override;

  void save_extras(wire::Writer& w) const override;
  void load_extras(wire::Reader& r) override;

 private:
  Rule rule_;
};

extern template class ReplicaGroupStrategy<HashRule>;
extern template class ReplicaGroupStrategy<MultiProbeRule>;

using HashStrategy = ReplicaGroupStrategy<HashRule>;
using MultiProbeStrategy = ReplicaGroupStrategy<MultiProbeRule>;

}  // namespace pls::core
