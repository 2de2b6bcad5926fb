// §3.4/§5.4 Round-Robin-y: entry i is stored at servers i..i+y-1 (mod n).
//
// The deterministic layout gives the lowest lookup cost (stride-y server
// sequences share no entries before wrap-around), zero unfairness, and
// complete coverage — at the price of a coordinator (server 0, the paper's
// "server 1") holding the head/tail counters, which every update must pass
// through (§6.3's bottleneck), and a migration protocol that "plugs the
// hole" a delete leaves in the round-robin sequence (Fig 10/11):
//
//   * Every live entry occupies a logical slot; live slots form the
//     contiguous range [head, tail).
//   * add(v): v takes slot tail, stored at servers tail..tail+y-1 (mod n);
//     tail advances.
//   * delete(v) at slot p: the coordinator broadcasts RoundRemove(v, head).
//     Every holder of v drops it and asks the head-slot server (via the
//     MigrateRequest RPC) for the replacement u — the entry at slot head —
//     then stores u at slot p. After all y holders have asked, the head-slot
//     server purges u's old copies (guarded by the old slot number so
//     holders that already re-homed u keep it). head advances. If v itself
//     sits at slot head, holders just drop it and no migration runs.
//
// The coordinator also tracks the live-entry set so that deletes of absent
// entries are ignored; this adds no messages and resolves a case the
// paper's pseudo-code leaves undefined.
//
// Known limitation (shared with the paper): a server failure *during* a
// delete can strand stale copies; Round-Robin is explicitly the wrong
// scheme for dynamic, failure-prone settings (§6.3).
#pragma once

#include <utility>

#include "pls/common/small_map.hpp"
#include "pls/core/strategy.hpp"

namespace pls::core {

class RoundRobinServer final : public StrategyServer {
 public:
  RoundRobinServer(ServerId id, Rng rng, std::size_t y,
                   std::size_t storage_budget)
      : StrategyServer(id, rng), y_(y), storage_budget_(storage_budget) {}

  void on_message(const net::Message& m, net::ClusterView& net) override;
  net::Message on_rpc(const net::Message& m, net::ClusterView& net) override;

  /// Coordinator counters (meaningful on server 0 only).
  std::uint64_t head() const noexcept { return head_; }
  std::uint64_t tail() const noexcept { return tail_; }
  std::size_t live_count() const noexcept { return live_.size(); }

  /// The logical slot this server records for `v`, or nullopt.
  std::optional<std::uint64_t> slot_of(Entry v) const;

  /// Coordinator-side liveness check (repair uses it to detect entries the
  /// coordinator still believes exist but no server stores).
  bool is_live(Entry v) const { return live_.contains(v); }

  /// Permanent loss forgets slots, migrations, and (on the coordinator)
  /// the head/tail/live metadata along with the store.
  void wipe() override;

  /// Snapshot: base state plus slot maps, in-flight migrations, and the
  /// coordinator metadata. Tables are written sorted by key so the bytes
  /// never depend on SmallMap layout history.
  void save_state(wire::Writer& w) const override;
  void load_state(wire::Reader& r) override;

 private:
  void set_slot(Entry v, std::uint64_t slot);
  void drop_entry(Entry v);
  void handle_place(const net::PlaceRequest& place, net::ClusterView& net);
  void handle_remove_broadcast(const net::RoundRemove& rm,
                               net::ClusterView& net);

  std::size_t y_;
  std::size_t storage_budget_;

  // Slot bookkeeping, maintained on every server for its own copies.
  // SmallMaps: pure membership/position lookups, never iterated, so table
  // layout cannot leak into results. A server holds h·y/n copies — a
  // couple at realistic fan-outs — so the tables stay in their inline
  // arrays and a tenant costs no heap beyond its own allocation.
  SmallMap<Entry, std::uint64_t, 2> slot_of_;
  SmallMap<std::uint64_t, Entry, 2> entry_at_slot_;

  // Migration bookkeeping (Fig 11's M[v] / R[v]), on the head-slot server.
  struct MigrationState {
    std::size_t requests = 0;
    Entry replacement = 0;
    bool valid = false;
  };
  SmallMap<Entry, MigrationState, 1> migrations_;

  // Coordinator state (server 0 only): the paper's head/tail counters plus
  // the live-entry set.
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;
  SmallSet<Entry, 4> live_;
};

class RoundRobinStrategy final : public Strategy {
 public:
  RoundRobinStrategy(StrategyConfig config, std::size_t num_servers,
                     std::shared_ptr<net::FailureState> failures);
  /// Shared-cluster mode: one more tenant key on `cluster`'s hosts.
  RoundRobinStrategy(StrategyConfig config, net::Cluster& cluster);

  LookupResult partial_lookup(std::size_t t) override;

  std::size_t y() const noexcept { return config().param; }

  /// The coordinator: the lowest-ranked member (id 0 until it permanently
  /// leaves, then its successor — the paper's "server 1" role fails over).
  ServerId coordinator() const;

  /// The coordinator's counters, exposed for tests and diagnostics.
  std::uint64_t head() const;
  std::uint64_t tail() const;

  /// Repair rule: re-home every surviving (slot, entry) onto servers
  /// slot..slot+y-1 over the member list, then verify (and if needed
  /// restore) the coordinator's head/tail/live metadata against the
  /// majority-reconstructed slot map. Entries the coordinator still lists
  /// as live but no server stores are counted unrecoverable (once — the
  /// restored metadata drops them). No-op for budgeted placements.
  net::RepairOutcome repair_once() override;

 protected:
  /// All updates route through the coordinator (§5.4).
  ServerId update_target() override;

  void attach_host(ServerId host, Rng rng) override;
  /// Re-places every surviving entry through the coordinator, renumbering
  /// slots 0..k-1 over the new member list.
  void rebalance(const net::MembershipChange& change) override;

 private:
  /// Majority reconstruction of the logical slot map from the servers'
  /// replicated (entry, slot) records: per-slot majority vote (smaller
  /// entry breaks ties), then per-entry dedup preferring the larger slot
  /// (migration moves entries up-slot; stale copies sit at old, smaller
  /// slots). Sorted by slot.
  std::vector<std::pair<std::uint64_t, Entry>> collect_slots() const;
};

}  // namespace pls::core
