#include "pls/core/multi_probe.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "pls/common/check.hpp"
#include "pls/wire/wire.hpp"

namespace pls::core {

void MultiProbeStrategy::save_extras(wire::Writer& w) const {
  w.u64le(placement_.point_seed);
  w.u64le(placement_.probe_seed);
  w.varint(placement_.probes);
  w.varint(placement_.groups);
}

void MultiProbeStrategy::load_extras(wire::Reader& r) {
  // The placement is derived from the config alone, so nothing needs
  // restoring — but a mismatch means the snapshot was taken under a
  // different config and every placement decision would diverge.
  const std::uint64_t point_seed = r.u64le();
  const std::uint64_t probe_seed = r.u64le();
  const std::uint64_t probes = r.varint();
  const std::uint64_t groups = r.varint();
  PLS_CHECK_MSG(r.ok() && point_seed == placement_.point_seed &&
                    probe_seed == placement_.probe_seed &&
                    probes == placement_.probes && groups == placement_.groups,
                "snapshot MultiProbe placement disagrees with config");
}

namespace {

/// The current members' ring points in rank order, hashed once per call,
/// for one placement rule it borrows (a local of that rule's own calls).
/// Inline for clusters of up to kInline members, so placing an entry there
/// allocates nothing; larger clusters keep them on the heap.
class RingPoints {
 public:
  RingPoints(const MultiProbePlacement& placement,
             const net::FailureState& fs)
      : placement_(placement) {
    const std::size_t n = fs.member_count();
    PLS_CHECK_MSG(n > 0, "multi-probe needs at least one member");
    if (n <= inline_.size()) {
      points_ = std::span<std::uint64_t>(inline_.data(), n);
    } else {
      heap_.resize(n);
      points_ = heap_;
    }
    for (std::size_t rank = 0; rank < n; ++rank) {
      points_[rank] = placement.point(fs.member_at(rank));
    }
  }
  RingPoints(const RingPoints&) = delete;
  RingPoints& operator=(const RingPoints&) = delete;

  /// The rank owning replica group `group` of `v` (see
  /// MultiProbePlacement::owner for the rule).
  std::size_t owner_rank(Entry v, std::uint32_t group) const noexcept {
    // Probe-major, rank-minor, strict <: the first minimal (probe, rank)
    // pair wins. Starting from rank 0 at the largest distance is the same
    // rule, because a pair that only ties that distance never replaces it.
    std::size_t best = 0;
    std::uint64_t best_dist = ~std::uint64_t{0};
    for (std::uint32_t i = 0; i < placement_.probes; ++i) {
      const std::uint64_t p = placement_.probe(v, group, i);
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
  const MultiProbePlacement& placement_;
  std::array<std::uint64_t, kInline> inline_{};
  std::vector<std::uint64_t> heap_;
  std::span<std::uint64_t> points_;
};

}  // namespace

ServerId MultiProbePlacement::owner(Entry v, std::uint32_t group,
                                    const net::FailureState& fs) const {
  const RingPoints points(*this, fs);
  return fs.member_at(points.owner_rank(v, group));
}

void MultiProbePlacement::targets(Entry v, std::size_t copies,
                                  const net::FailureState& fs,
                                  TargetList& out) const {
  const RingPoints points(*this, fs);
  for (std::uint32_t j = 0; j < copies; ++j) {
    out.insert(fs.member_at(points.owner_rank(v, j)));
  }
}

template <typename Msg>
void MultiProbeServer::send_to_targets(Entry v, std::size_t copies,
                                       net::ClusterView& net) {
  TargetList targets;
  placement_.targets(v, copies, net.failures(), targets);
  for (ServerId target : targets) net.send(id(), target, Msg{v});
}

void MultiProbeServer::on_message(const net::Message& m,
                                  net::ClusterView& net) {
  if (const auto* place = std::get_if<net::PlaceRequest>(&m)) {
    // Reset every server, then distribute. With a storage budget L below
    // y*h, entry i gets floor(L/h) or ceil(L/h) copies via its first
    // replica groups — the "keep a subset" regime of §4.3, exactly as
    // Hash-y splits a budget over its first hash functions.
    net.broadcast(id(), net::StoreBatch{});
    const std::size_t h = place->entries.size();
    const std::size_t y = placement_.groups;
    for (std::size_t i = 0; i < h; ++i) {
      std::size_t copies = y;
      if (storage_budget_ != 0 && h > 0) {
        copies = storage_budget_ / h + (i < storage_budget_ % h ? 1 : 0);
        PLS_CHECK_MSG(copies <= y,
                      "storage budget exceeds what y replica groups place");
      }
      send_to_targets<net::StoreEntry>(place->entries[i], copies, net);
    }
  } else if (const auto* add = std::get_if<net::AddRequest>(&m)) {
    send_to_targets<net::StoreEntry>(add->entry, placement_.groups, net);
  } else if (const auto* del = std::get_if<net::DeleteRequest>(&m)) {
    send_to_targets<net::RemoveEntry>(del->entry, placement_.groups, net);
  } else {
    StrategyServer::on_message(m, net);
  }
}

namespace {

MultiProbePlacement make_placement(const StrategyConfig& config) {
  MultiProbePlacement p;
  p.point_seed = Rng(config.seed).fork(0x2300)();
  p.probe_seed = Rng(config.seed).fork(0x2400)();
  p.probes = static_cast<std::uint32_t>(config.probes);
  p.groups = static_cast<std::uint32_t>(config.param);
  return p;
}

}  // namespace

MultiProbeStrategy::MultiProbeStrategy(
    StrategyConfig config, std::size_t num_servers,
    std::shared_ptr<net::FailureState> failures)
    : Strategy(config, num_servers, std::move(failures)),
      placement_(make_placement(this->config())) {
  build();
}

MultiProbeStrategy::MultiProbeStrategy(StrategyConfig config,
                                       net::Cluster& cluster)
    : Strategy(config, cluster), placement_(make_placement(this->config())) {
  build();
}

void MultiProbeStrategy::build() {
  PLS_CHECK_MSG(config().param >= 1, "MultiProbe needs y >= 1");
  PLS_CHECK_MSG(config().probes >= 1, "MultiProbe needs r >= 1 probes");
  Rng master(config().seed);
  for (std::size_t i = 0; i < num_servers(); ++i) {
    register_tenant<MultiProbeServer>(static_cast<ServerId>(i),
                                      master.fork(0x1000 + i), placement_,
                                      config().storage_budget);
  }
}

LookupResult MultiProbeStrategy::partial_lookup(std::size_t t) {
  return random_order_lookup(cluster_view(), client_rng(), t, retry_policy());
}

void MultiProbeStrategy::attach_host(ServerId host, Rng rng) {
  register_tenant<MultiProbeServer>(host, rng, placement_,
                                    config().storage_budget);
}

void MultiProbeStrategy::rebalance(const net::MembershipChange& change) {
  // Budgeted placements are static-only experiments (see HashStrategy).
  if (config().storage_budget != 0) return;
  const net::FailureState& fs = network().failures();
  // No re-key: the ring points of surviving members are unchanged, so the
  // want/has diff below is a no-op for every entry whose nearest point
  // stayed put. Only ~1/n of the union moves on a single join or leave —
  // the defining economy of this family.
  net::ClusterView view = cluster_view();
  TargetList wanted;
  for (Entry v : stored_union()) {
    wanted.clear();
    placement_.targets(v, placement_.groups, fs, wanted);
    for (std::size_t rank = 0; rank < fs.member_count(); ++rank) {
      const ServerId s = fs.member_at(rank);
      const bool want = wanted.contains(s);
      const bool has = server_state(s).store().contains(v);
      if (want && !has) view.client_send(s, net::StoreEntry{v});
      if (!want && has) view.client_send(s, net::RemoveEntry{v});
    }
  }
  (void)change;
}

net::RepairOutcome MultiProbeStrategy::repair_once() {
  net::RepairOutcome out;
  if (config().storage_budget != 0) return out;
  const auto u = stored_union();
  if (u.empty()) return out;
  const net::FailureState& fs = network().failures();
  net::ClusterView view = repair_view();
  TargetList owners;
  std::vector<ServerId> candidates;
  for (Entry v : u) {
    // Restore the entry onto each of its replica-group owners.
    owners.clear();
    placement_.targets(v, placement_.groups, fs, owners);
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
    // entry has a single copy, and one wipe would destroy it. Give such
    // entries a spare on a repair-chosen up server.
    const std::size_t floor_copies =
        std::min<std::size_t>(2, fs.member_count());
    std::size_t copies = copies_of(v);
    while (copies < floor_copies) {
      candidates.clear();
      for (std::size_t rank = 0; rank < fs.member_count(); ++rank) {
        const ServerId s = fs.member_at(rank);
        if (fs.is_up(s) && !server_state(s).store().contains(v)) {
          candidates.push_back(s);
        }
      }
      if (candidates.empty()) {
        out.deficit_after += floor_copies - copies;
        break;
      }
      const ServerId pick = candidates[repair_rng().uniform(candidates.size())];
      view.client_send(pick, net::StoreEntry{v});
      ++out.replicas_created;
      ++copies;
    }
  }
  return out;
}

}  // namespace pls::core
