// Sharded thread-per-core execution of the partial lookup service.
//
// One worker thread per shard; the Key space is statically partitioned by
// content hash (shard_of_key: mix_hash(content) & (S-1)). Each shard owns
// a complete, private replica of the service machinery — its own
// core::PartialLookupService, i.e. its own cluster of tenant tables, Rng
// streams, link model and TransportStats ledgers, plus its own
// RepairProcess — and executes every operation for its keys on its own
// thread. The lookup hot path therefore takes **no locks and shares no
// mutable cache lines across shards**: the only cross-thread structures an
// op touches are its shard's SpscQueue slot and the worker's park word,
// and all state an op reads or writes is shard-private.
//
// Control plane vs data plane. Client ops (place/add/erase/lookup) are
// *routed* to the owning shard's queue. The coordinator resolves a key
// name once per op, with one probe of its route table; a key seen for the
// first time gets its owning shard (shard_of_key) and a dense per-shard
// route index. The op carries that index, and the owning worker maps it to
// its own KeyId through a worker-private table filled on first touch, so
// neither side re-hashes the name per op; cluster-scoped ops (failures,
// membership, repair scans, arbitrary tasks) are *broadcast* to every
// shard's queue. A shard's queue is strictly FIFO, so every shard
// observes the same relative order of control ops vs its own data ops as
// the sequential oracle would, and shard-replicated cluster state
// (membership epochs, failure flags) stays identical across shards —
// checked by shards_consistent().
//
// Determinism contract. Per-key random streams are seeded from
// (service_seed, key content) — never from KeyId, intern order, or the
// hosting shard (see common/hashing.hpp: key_content_hash). A key's
// entire history is therefore bit-identical whether it runs on the
// sequential service or on any shard of any S, and aggregate counters —
// integer folds in fixed shard order (metrics/shard_fold.hpp) — are
// bit-identical to the sequential run for any --shards. The tier-2
// differential grid and scripts/perf_check.sh pin this.
//
// Barriers. A worker runs each op in place in its ring slot and releases
// the slot (a release store of the ring's consumer cursor) only after the
// op has run, so drain() just waits (acquire) until every shard's ring is
// empty. All aggregate accessors drain first, so post-barrier reads of
// shard state from the control thread are race-free by that
// acquire/release pairing. An op that throws does not stop its worker:
// the shard keeps its first error and the next drain() rethrows it on the
// control thread.
//
// Idle workers. A worker that finds its ring empty yields for a few polls
// and then parks on a futex (std::atomic::wait) until the next push to its
// ring wakes it, so an idle shard costs no core and wakes as soon as work
// arrives.
//
// Layering note: this library (pls_runtime) sits *above* core — a shard
// replica is a whole PartialLookupService — but the class lives in
// namespace pls::sim beside the TrialRunner it generalises: the runtime
// is the execution engine of the simulation, not a placement policy.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "pls/core/service.hpp"
#include "pls/metrics/shard_fold.hpp"
#include "pls/net/repair.hpp"
#include "pls/sim/spsc_queue.hpp"

namespace pls::sim {

struct ShardedRuntimeConfig {
  /// Number of worker shards; must be a power of two (key routing is a
  /// mask) and >= 1.
  std::size_t shards = 1;
  /// Capacity of each shard's SPSC op ring. The control thread blocks
  /// (yields) when a shard's ring is full — bounded queues are the
  /// backpressure mechanism, not a correctness limit.
  std::size_t queue_capacity = 1024;
  /// Replicated into every shard verbatim (same seed, same num_servers —
  /// the seed-derivation contract needs identical service configs).
  /// expected_keys is divided across shards. strategy_policy, if set,
  /// must be a pure function of the key: it runs on worker threads.
  core::ServiceConfig service{};
};

class ShardedRuntime {
 public:
  /// Work run on a shard's worker thread: (shard index, shard service).
  using Task = std::function<void(std::size_t, core::PartialLookupService&)>;

  explicit ShardedRuntime(ShardedRuntimeConfig config);
  ~ShardedRuntime();

  ShardedRuntime(const ShardedRuntime&) = delete;
  ShardedRuntime& operator=(const ShardedRuntime&) = delete;

  std::size_t shards() const noexcept { return shards_.size(); }
  /// The shard that owns `key` (pure content hash; see shard_of_key).
  std::size_t shard_of(const Key& key) const noexcept;

  // --- data plane: routed to the owning shard, executed asynchronously --
  void place(const Key& key, std::span<const Entry> entries);
  void add(const Key& key, Entry v);
  void erase(const Key& key, Entry v);
  /// partial_lookup(k, t), fire-and-forget: the result is tallied into
  /// the shard's lookup counters (lookup_totals / key_lookup_totals).
  void lookup(const Key& key, std::size_t t);

  // --- control plane: broadcast to every shard ---------------------------
  void fail_server(ServerId s);
  void recover_server(ServerId s);
  void recover_all();
  /// Adds one host to every shard replica; returns its id (identical on
  /// every shard — membership histories are replicated in lockstep).
  ServerId add_server();
  void remove_server(ServerId s, net::Loss loss);
  /// One repair pass on every shard's RepairProcess (same epoch early-out
  /// as the sim-driven scans); `now` timestamps time-to-repair samples.
  void repair_scan(double now);
  /// Runs `fn(shard_index, shard_service)` on one shard's worker thread,
  /// in queue order with every other op. The escape hatch higher layers
  /// (the saturation driver) use to run whole engines shard-locally.
  void run_on_shard(std::size_t shard, Task fn);
  /// Runs a copy of `fn` on every shard.
  void run_on_shards(const Task& fn);

  /// Barrier: blocks until every submitted op has executed. After it
  /// returns, shard state is quiescent and safe to read from this thread.
  /// If an op threw on a worker since the last drain, rethrows the first
  /// such error (lowest shard first) and forgets it; the ops after it ran.
  void drain();

  // --- snapshot/restore (docs/PROTOCOLS.md §"Wire format v1") -------------
  /// Drains, then serializes every shard replica — each a complete
  /// service snapshot — plus the shard-local lookup tallies and repair
  /// bookkeeping. A restored runtime continues bit-identically.
  std::vector<std::uint8_t> save_snapshot();
  /// Restores into a freshly built runtime (same config, no ops issued
  /// yet). Each shard loads its blob on its own worker thread, so
  /// restored state has the same thread affinity as live state. Returns
  /// an error string on a mismatched or corrupt snapshot. Drains first, so
  /// an error an earlier op left throws before anything is restored.
  std::optional<std::string> load_snapshot(std::span<const std::uint8_t> data);

  // --- post-barrier aggregates (each drains internally) ------------------
  /// Folded lookup tallies across shards (bit-identical to a sequential
  /// tally of the same ops).
  metrics::ShardLookupCounters lookup_totals();
  /// One key's lookup tallies (zeros for a key never placed).
  metrics::ShardLookupCounters key_lookup_totals(const Key& key);
  /// Folded cluster-wide client transport, in shard order.
  net::TransportStats total_transport();
  /// Folded repair-ledger transport, in shard order.
  net::TransportStats total_repair_transport();
  /// One key's transport slice (zeros for a key never placed).
  net::TransportStats key_transport(const Key& key);
  std::uint64_t total_repairs_created();
  std::size_t num_keys();
  std::size_t total_storage();
  bool contains_key(const Key& key);

  /// Cross-shard replication invariant: every shard replica has the same
  /// membership epoch, member count, and up count. Broadcast ordering
  /// guarantees it; the JSON panel and tests assert it.
  bool shards_consistent();

  // --- per-shard introspection (post-barrier) ----------------------------
  core::PartialLookupService& shard_service(std::size_t shard);
  const metrics::ShardLookupCounters& shard_lookups(std::size_t shard);
  const net::TransportStats& shard_transport(std::size_t shard);
  /// Ops submitted to `shard` so far (control-thread counter).
  std::uint64_t shard_ops(std::size_t shard) const;
  /// Highest queue occupancy `shard` showed at every 64th submission to it
  /// (ops pushed minus ops the worker has released, read once per 64 pushes
  /// so that the producer does not read the worker's cursor line per op).
  /// Control-thread counter; machine- and timing-dependent, so reported but
  /// never gated, and 0 for a shard that received fewer than 64 ops.
  std::uint64_t shard_queue_peak(std::size_t shard) const;

 private:
  struct ShardOp;
  struct Shard;

  /// A key's owning shard and its dense route index on that shard.
  struct Route {
    std::uint32_t shard = 0;
    std::uint32_t index = 0;
  };

  /// Points `op` at `key`'s intern-store entry and route index, assigning
  /// both on first sight; returns the owning shard.
  std::size_t route(const Key& key, ShardOp& op);
  /// The worker side of a route: the shard-local KeyId behind `op`'s route
  /// index, resolved on first touch and cached. `create` interns a missing
  /// key (place/add); otherwise an unknown key yields nullopt and is looked
  /// up again on its next op.
  static std::optional<KeyId> resolve(Shard& shard, const ShardOp& op,
                                      bool create);
  /// Queues `op` on `shard` and wakes the shard's worker if it is parked.
  void push(std::size_t shard, ShardOp&& op);
  /// Pushes one op to every shard, each built by `fill(op)`.
  template <typename Fill>
  void broadcast(Fill fill);
  /// Blocks until every shard's ring is empty (drain() without the rethrow).
  void wait_for_workers();
  void worker_loop(Shard& shard);
  void execute(Shard& shard, ShardOp& op);

  ShardedRuntimeConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Control-side route table: maps a key to its Route and pins a stable
  /// Key instance ops can point into (node-based map — references are
  /// never invalidated). load_snapshot clears it along with the workers'
  /// tables.
  std::unordered_map<Key, Route> keys_;
  /// Mirror of the replicated membership history (next add_server id).
  std::size_t num_servers_;
  std::atomic<bool> stop_{false};
};

}  // namespace pls::sim
