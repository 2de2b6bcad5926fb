#include "pls/core/replica_groups.hpp"

#include <array>
#include <span>

#include "pls/common/check.hpp"
#include "pls/wire/wire.hpp"

namespace pls::core {

// --- Hash-y -----------------------------------------------------------------

HashRule::HashRule(const StrategyConfig& config, const net::FailureState& fs)
    : family_(config.param, fs.member_count(),
              Rng(config.seed).fork(0x2000)()) {}

void HashRule::targets(Entry v, std::size_t copies,
                       const net::FailureState& fs, TargetList& out) const {
  for (std::size_t j = 0; j < copies; ++j) {
    out.insert(fs.member_at(family_(j, v)));
  }
}

void HashRule::rekey(const StrategyConfig& config,
                     const net::FailureState& fs) {
  const std::uint64_t seed =
      Rng(config.seed).fork(0x2000 + 0x100 * fs.epoch())();
  family_ = HashFamily(config.param, fs.member_count(), seed);
}

void HashRule::save(wire::Writer& w) const {
  w.varint(family_.num_servers());
  const auto& seeds = family_.seeds();
  w.varint(seeds.size());
  for (const std::uint64_t s : seeds) w.u64le(s);
}

void HashRule::load(wire::Reader& r, const StrategyConfig& config,
                    const net::FailureState& fs) {
  const std::uint64_t num_servers = r.varint();
  const std::uint64_t count = r.varint();
  PLS_CHECK_MSG(r.ok(), "truncated Hash family snapshot");
  // Both counts are untrusted. The family has one seed per replica group,
  // 8 bytes each, and ranks over exactly the restored member list.
  PLS_CHECK_MSG(count == config.param && count <= r.remaining() / 8,
                "malformed Hash family snapshot (seed count)");
  PLS_CHECK_MSG(num_servers == fs.member_count(),
                "malformed Hash family snapshot (server count differs from "
                "the member count)");
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(count));
  for (std::uint64_t& s : seeds) s = r.u64le();
  PLS_CHECK_MSG(r.ok(), "truncated Hash family snapshot");
  family_ = HashFamily::from_seeds(std::move(seeds),
                                   static_cast<std::size_t>(num_servers));
}

// --- MultiProbe -------------------------------------------------------------

MultiProbeRule::MultiProbeRule(const StrategyConfig& config,
                               const net::FailureState&)
    : point_seed(Rng(config.seed).fork(0x2300)()),
      probe_seed(Rng(config.seed).fork(0x2400)()),
      probes(static_cast<std::uint32_t>(config.probes)),
      groups(static_cast<std::uint32_t>(config.param)) {}

void MultiProbeRule::save(wire::Writer& w) const {
  w.u64le(point_seed);
  w.u64le(probe_seed);
  w.varint(probes);
  w.varint(groups);
}

void MultiProbeRule::load(wire::Reader& r, const StrategyConfig&,
                          const net::FailureState&) {
  // The rule is derived from the config alone, so nothing needs restoring
  // — but a mismatch means the snapshot was taken under a different config
  // and every placement decision would diverge.
  const std::uint64_t saved_point_seed = r.u64le();
  const std::uint64_t saved_probe_seed = r.u64le();
  const std::uint64_t saved_probes = r.varint();
  const std::uint64_t saved_groups = r.varint();
  PLS_CHECK_MSG(r.ok() && saved_point_seed == point_seed &&
                    saved_probe_seed == probe_seed &&
                    saved_probes == probes && saved_groups == groups,
                "snapshot MultiProbe placement disagrees with config");
}

namespace {

/// The current members' ring points in rank order, hashed once per call,
/// for one rule it borrows (a local of that rule's own calls). Inline for
/// clusters of up to kInline members, so placing an entry there allocates
/// nothing; larger clusters keep them on the heap.
class RingPoints {
 public:
  RingPoints(const MultiProbeRule& rule, const net::FailureState& fs)
      : rule_(rule) {
    const std::size_t n = fs.member_count();
    PLS_CHECK_MSG(n > 0, "multi-probe needs at least one member");
    if (n <= inline_.size()) {
      points_ = std::span<std::uint64_t>(inline_.data(), n);
    } else {
      heap_.resize(n);
      points_ = heap_;
    }
    for (std::size_t rank = 0; rank < n; ++rank) {
      points_[rank] = rule.point(fs.member_at(rank));
    }
  }
  RingPoints(const RingPoints&) = delete;
  RingPoints& operator=(const RingPoints&) = delete;

  /// The rank owning replica group `group` of `v` (see
  /// MultiProbeRule::owner for the rule).
  std::size_t owner_rank(Entry v, std::uint32_t group) const noexcept {
    // Probe-major, rank-minor, strict <: the first minimal (probe, rank)
    // pair wins. Starting from rank 0 at the largest distance is the same
    // rule, because a pair that only ties that distance never replaces it.
    std::size_t best = 0;
    std::uint64_t best_dist = ~std::uint64_t{0};
    for (std::uint32_t i = 0; i < rule_.probes; ++i) {
      const std::uint64_t p = rule_.probe(v, group, i);
      for (std::size_t rank = 0; rank < points_.size(); ++rank) {
        // Clockwise distance from the probe to the member's point; modular
        // subtraction wraps the ring.
        const std::uint64_t dist = points_[rank] - p;
        if (dist < best_dist) {
          best = rank;
          best_dist = dist;
        }
      }
    }
    return best;
  }

 private:
  static constexpr std::size_t kInline = 64;
  const MultiProbeRule& rule_;
  std::array<std::uint64_t, kInline> inline_{};
  std::vector<std::uint64_t> heap_;
  std::span<std::uint64_t> points_;
};

}  // namespace

ServerId MultiProbeRule::owner(Entry v, std::uint32_t group,
                               const net::FailureState& fs) const {
  const RingPoints points(*this, fs);
  return fs.member_at(points.owner_rank(v, group));
}

void MultiProbeRule::targets(Entry v, std::size_t copies,
                             const net::FailureState& fs,
                             TargetList& out) const {
  const RingPoints points(*this, fs);
  for (std::uint32_t j = 0; j < copies; ++j) {
    out.insert(fs.member_at(points.owner_rank(v, j)));
  }
}

// --- the shared replica-group strategy ---------------------------------------

namespace {

/// One host's tenant. It borrows the strategy's rule, which outlives every
/// call into the tenant.
template <typename Rule>
class ReplicaGroupServer final : public StrategyServer {
 public:
  ReplicaGroupServer(ServerId id, Rng rng, const Rule& rule, std::size_t y,
                     std::size_t storage_budget)
      : StrategyServer(id, rng),
        rule_(&rule),
        y_(y),
        storage_budget_(storage_budget) {}

  void on_message(const net::Message& m, net::ClusterView& net) override {
    if (const auto* place = std::get_if<net::PlaceRequest>(&m)) {
      // Reset every server, then distribute. With a storage budget L below
      // y*h, entry i gets floor(L/h) or ceil(L/h) copies via its first
      // replica groups — the "keep a subset" regime of §4.3.
      net.broadcast(id(), net::StoreBatch{});
      const std::size_t h = place->entries.size();
      for (std::size_t i = 0; i < h; ++i) {
        std::size_t copies = y_;
        if (storage_budget_ != 0) {
          copies = storage_budget_ / h + (i < storage_budget_ % h ? 1 : 0);
          PLS_CHECK_MSG(copies <= y_,
                        "storage budget exceeds what y replica groups place");
        }
        send_to_targets<net::StoreEntry>(place->entries[i], copies, net);
      }
    } else if (const auto* add = std::get_if<net::AddRequest>(&m)) {
      send_to_targets<net::StoreEntry>(add->entry, y_, net);
    } else if (const auto* del = std::get_if<net::DeleteRequest>(&m)) {
      send_to_targets<net::RemoveEntry>(del->entry, y_, net);
    } else {
      StrategyServer::on_message(m, net);
    }
  }

 private:
  /// Sends Msg{v} to the first `copies` replica-group owners of `v`:
  /// place, add and delete share this fan-out.
  template <typename Msg>
  void send_to_targets(Entry v, std::size_t copies, net::ClusterView& net) {
    TargetList targets;
    rule_->targets(v, copies, net.failures(), targets);
    for (ServerId target : targets) net.send(id(), target, Msg{v});
  }

  const Rule* rule_;
  std::size_t y_;
  std::size_t storage_budget_;
};

}  // namespace

template <typename Rule>
ReplicaGroupStrategy<Rule>::ReplicaGroupStrategy(
    StrategyConfig config, std::size_t num_servers,
    std::shared_ptr<net::FailureState> failures)
    : Strategy(config, num_servers, std::move(failures)),
      rule_(this->config(), network().failures()) {
  install_tenants();
}

template <typename Rule>
ReplicaGroupStrategy<Rule>::ReplicaGroupStrategy(StrategyConfig config,
                                                 net::Cluster& cluster)
    : Strategy(config, cluster), rule_(this->config(), network().failures()) {
  install_tenants();
}

template <typename Rule>
LookupResult ReplicaGroupStrategy<Rule>::partial_lookup(std::size_t t) {
  return random_order_lookup(cluster_view(), client_rng(), t, retry_policy());
}

template <typename Rule>
void ReplicaGroupStrategy<Rule>::attach_host(ServerId host, Rng rng) {
  register_tenant<ReplicaGroupServer<Rule>>(host, rng, rule_, y(),
                                            config().storage_budget);
}

template <typename Rule>
void ReplicaGroupStrategy<Rule>::rebalance(
    const net::MembershipChange& change) {
  (void)change;
  const net::FailureState& fs = network().failures();
  rule_.rekey(config(), fs);
  // Budgeted placements are static-only experiments: the per-entry copy
  // counts depend on the original place() order, which membership changes
  // cannot reproduce. Their data stays where it is; a later place()
  // spreads over the re-keyed rule.
  if (config().storage_budget != 0) return;
  // Migrate every surviving entry to its owners and drop copies the rule
  // no longer places (ordinary traffic: this is the cost of the membership
  // change, not of background repair).
  net::ClusterView view = cluster_view();
  TargetList wanted;
  for (Entry v : stored_union()) {
    wanted.clear();
    rule_.targets(v, y(), fs, wanted);
    for (std::size_t rank = 0; rank < fs.member_count(); ++rank) {
      const ServerId s = fs.member_at(rank);
      const bool want = wanted.contains(s);
      const bool has = server_state(s).store().contains(v);
      if (want && !has) view.client_send(s, net::StoreEntry{v});
      if (!want && has) view.client_send(s, net::RemoveEntry{v});
    }
  }
}

template <typename Rule>
net::RepairOutcome ReplicaGroupStrategy<Rule>::repair_once() {
  net::RepairOutcome out;
  if (config().storage_budget != 0) return out;
  const net::FailureState& fs = network().failures();
  net::ClusterView view = repair_view();
  TargetList owners;
  for (Entry v : stored_union()) {
    // Restore the entry onto each of its replica-group owners.
    owners.clear();
    rule_.targets(v, y(), fs, owners);
    for (ServerId s : owners) {
      if (server_state(s).store().contains(v)) continue;
      if (!fs.is_up(s)) {
        ++out.deficit_after;
        continue;
      }
      view.client_send(s, net::StoreEntry{v});
      ++out.replicas_created;
    }
    // Collision floor: when every replica group lands on one server the
    // entry has a single copy, and one wipe would destroy it.
    restore_floor(v, view, out);
  }
  return out;
}

template <typename Rule>
void ReplicaGroupStrategy<Rule>::save_extras(wire::Writer& w) const {
  rule_.save(w);
}

template <typename Rule>
void ReplicaGroupStrategy<Rule>::load_extras(wire::Reader& r) {
  rule_.load(r, config(), network().failures());
}

template class ReplicaGroupStrategy<HashRule>;
template class ReplicaGroupStrategy<MultiProbeRule>;

}  // namespace pls::core
