#include "pls/runtime/sharded_runtime.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <utility>

#include "pls/common/check.hpp"
#include "pls/common/hashing.hpp"
#include "pls/wire/snapshot.hpp"
#include "pls/wire/wire.hpp"

namespace pls::sim {

// One queued operation: one cache line, the ring slot its worker runs it
// in. The scalar arguments of every kind sit inline; the two rare payloads
// (a place's entries, a task's closure) sit behind one pointer. A lookup,
// add or erase therefore moves a few words through the ring and allocates
// nothing (gated under PLS_COUNT_ALLOCS).
struct alignas(detail::kCacheLine) ShardedRuntime::ShardOp {
  enum class Kind : std::uint8_t {
    kPlace,
    kAdd,
    kErase,
    kLookup,
    kFail,
    kRecover,
    kRecoverAll,
    kAddHost,
    kRemoveHost,
    kRepairScan,
    kTask,
  };
  struct Payload {
    std::vector<Entry> entries;  ///< kPlace
    Task task;                   ///< kTask
  };

  Kind kind = Kind::kLookup;
  net::Loss loss = net::Loss::kGraceful;
  ServerId server = kInvalidServer;
  /// The key's dense route index on the owning shard.
  std::uint32_t route = 0;
  /// Points into the control plane's route table (stable until
  /// load_snapshot clears it, which drains first); null for key-less
  /// control ops. Read by the worker only to resolve a route on first touch.
  const Key* key = nullptr;
  Entry value = 0;
  std::size_t t = 0;
  double now = 0.0;
  /// Null except for kPlace and kTask.
  std::unique_ptr<Payload> payload;
};

struct ShardedRuntime::Shard {
  Shard(std::size_t shard_index, std::size_t queue_capacity,
        core::ServiceConfig cfg)
      : index(shard_index),
        queue(queue_capacity),
        service(std::make_unique<core::PartialLookupService>(std::move(cfg))),
        // Interval is irrelevant: the control plane owns the cadence and
        // drives scan_once() directly.
        repair(std::make_unique<net::RepairProcess>(
            service->cluster().failures(),
            net::RepairProcess::Config{1.0})) {}

  const std::size_t index;
  /// Releasing a slot only after its op ran is what makes post-barrier
  /// reads of all the (unsynchronised) shard state below race-free: see
  /// drain().
  SpscQueue<ShardOp> queue;
  std::unique_ptr<core::PartialLookupService> service;
  std::unique_ptr<net::RepairProcess> repair;
  /// Tenants already registered as repair targets / counter slots
  /// (worker-thread state; new tenants are synced after any op that can
  /// intern a key).
  std::size_t known_keys = 0;
  metrics::ShardLookupCounters totals;
  /// Indexed by this shard's dense (shard-local) KeyId.
  std::vector<metrics::ShardLookupCounters> per_key;
  /// Route index -> shard-local KeyId, kUnresolved until the key first
  /// exists here (worker-thread state; see resolve()).
  std::vector<KeyId> key_ids;
  /// The first exception an op threw here since the last drain (written by
  /// the worker, rethrown and cleared by drain() on the control thread).
  std::exception_ptr error;
  /// Route indices handed out for this shard (control-thread state, on its
  /// own line so that the producer's per-push writes do not evict the
  /// worker's fields above).
  alignas(detail::kCacheLine) std::uint32_t routes = 0;
  /// Control-thread submission count; never touched by the worker.
  std::uint64_t submitted = 0;
  /// Occupancy high-water (control-thread state; see shard_queue_peak).
  std::uint64_t queue_peak = 0;
  /// 1 while the worker is parked or about to park (see worker_loop). The
  /// producer reads it on every push; the worker writes it only to park.
  alignas(detail::kCacheLine) std::atomic<std::uint32_t> parked{0};
  std::thread thread;
};

ShardedRuntime::ShardedRuntime(ShardedRuntimeConfig config)
    : config_(std::move(config)),
      num_servers_(config_.service.num_servers) {
  PLS_CHECK_MSG(config_.shards >= 1, "runtime needs at least one shard");
  PLS_CHECK_MSG((config_.shards & (config_.shards - 1)) == 0,
                "shard count must be a power of two (key routing is a mask)");
  PLS_CHECK_MSG(config_.queue_capacity >= 2, "op queue too small");
  const std::size_t S = config_.shards;
  shards_.reserve(S);
  for (std::size_t s = 0; s < S; ++s) {
    core::ServiceConfig cfg = config_.service;
    // Same seed and membership everywhere (the determinism contract);
    // only the reservation hint is divided.
    cfg.expected_keys = (config_.service.expected_keys + S - 1) / S;
    shards_.push_back(
        std::make_unique<Shard>(s, config_.queue_capacity, std::move(cfg)));
  }
  if (config_.service.expected_keys > 0) {
    keys_.reserve(config_.service.expected_keys);
  }
  for (auto& shard : shards_) {
    shard->thread = std::thread([this, sh = shard.get()] { worker_loop(*sh); });
  }
}

ShardedRuntime::~ShardedRuntime() {
  // An error no drain() collected dies with the runtime.
  wait_for_workers();
  stop_.store(true, std::memory_order_seq_cst);
  for (auto& shard : shards_) {
    shard->parked.store(0, std::memory_order_seq_cst);
    shard->parked.notify_one();
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

std::size_t ShardedRuntime::shard_of(const Key& key) const noexcept {
  return shard_of_key(key, shards_.size());
}

std::size_t ShardedRuntime::route(const Key& key, ShardOp& op) {
  const auto [it, inserted] = keys_.try_emplace(key);
  if (inserted) {
    const std::size_t s = shard_of(key);
    it->second = Route{static_cast<std::uint32_t>(s), shards_[s]->routes++};
  }
  op.key = &it->first;
  op.route = it->second.index;
  return it->second.shard;
}

void ShardedRuntime::push(std::size_t shard, ShardOp&& op) {
  static_assert(sizeof(ShardOp) == detail::kCacheLine,
                "a queued op fills exactly one ring slot line");
  Shard& sh = *shards_[shard];
  // Bounded-queue backpressure: a full ring means the shard is behind;
  // yield until a slot frees (try_push does not consume `op` on failure).
  while (!sh.queue.try_push(std::move(op))) std::this_thread::yield();
  // The producer half of the park handshake (worker_loop): the op is
  // published by a seq_cst store, so either the worker's re-check finds it
  // or this load finds the worker parked. The clear is seq_cst too, so
  // that notify_one sees a waiter that is about to sleep.
  if (sh.parked.load(std::memory_order_seq_cst) != 0) {
    sh.parked.store(0, std::memory_order_seq_cst);
    sh.parked.notify_one();
  }
  // Occupancy high-water, sampled once per 64 pushes: reading the worker's
  // cursor on every push would pull its cache line over per op. The bench
  // reports it per shard to show where the backlog sits as S grows.
  if (++sh.submitted % 64 == 0) {
    sh.queue_peak = std::max<std::uint64_t>(sh.queue_peak, sh.queue.size());
  }
}

template <typename Fill>
void ShardedRuntime::broadcast(Fill fill) {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardOp op;
    fill(op);
    push(s, std::move(op));
  }
}

// --- data plane -----------------------------------------------------------

void ShardedRuntime::place(const Key& key, std::span<const Entry> entries) {
  ShardOp op;
  op.kind = ShardOp::Kind::kPlace;
  op.payload = std::make_unique<ShardOp::Payload>();
  op.payload->entries.assign(entries.begin(), entries.end());
  push(route(key, op), std::move(op));
}

void ShardedRuntime::add(const Key& key, Entry v) {
  ShardOp op;
  op.kind = ShardOp::Kind::kAdd;
  op.value = v;
  push(route(key, op), std::move(op));
}

void ShardedRuntime::erase(const Key& key, Entry v) {
  ShardOp op;
  op.kind = ShardOp::Kind::kErase;
  op.value = v;
  push(route(key, op), std::move(op));
}

void ShardedRuntime::lookup(const Key& key, std::size_t t) {
  ShardOp op;
  op.kind = ShardOp::Kind::kLookup;
  op.t = t;
  push(route(key, op), std::move(op));
}

// --- control plane --------------------------------------------------------

void ShardedRuntime::fail_server(ServerId s) {
  broadcast([s](ShardOp& op) {
    op.kind = ShardOp::Kind::kFail;
    op.server = s;
  });
}

void ShardedRuntime::recover_server(ServerId s) {
  broadcast([s](ShardOp& op) {
    op.kind = ShardOp::Kind::kRecover;
    op.server = s;
  });
}

void ShardedRuntime::recover_all() {
  broadcast([](ShardOp& op) { op.kind = ShardOp::Kind::kRecoverAll; });
}

ServerId ShardedRuntime::add_server() {
  broadcast([](ShardOp& op) { op.kind = ShardOp::Kind::kAddHost; });
  // Host ids are monotonic (tombstoned hosts keep their slot), and every
  // shard replays the same membership history, so the control-side mirror
  // knows the id every shard will assign without a barrier.
  return static_cast<ServerId>(num_servers_++);
}

void ShardedRuntime::remove_server(ServerId s, net::Loss loss) {
  broadcast([s, loss](ShardOp& op) {
    op.kind = ShardOp::Kind::kRemoveHost;
    op.server = s;
    op.loss = loss;
  });
}

void ShardedRuntime::repair_scan(double now) {
  broadcast([now](ShardOp& op) {
    op.kind = ShardOp::Kind::kRepairScan;
    op.now = now;
  });
}

void ShardedRuntime::run_on_shard(std::size_t shard, Task fn) {
  PLS_CHECK_MSG(shard < shards_.size(), "shard index out of range");
  ShardOp op;
  op.kind = ShardOp::Kind::kTask;
  op.payload = std::make_unique<ShardOp::Payload>();
  op.payload->task = std::move(fn);
  push(shard, std::move(op));
}

void ShardedRuntime::run_on_shards(const Task& fn) {
  for (std::size_t s = 0; s < shards_.size(); ++s) run_on_shard(s, fn);
}

// --- worker ---------------------------------------------------------------

namespace {

constexpr KeyId kUnresolved = std::numeric_limits<KeyId>::max();

/// Registers tenants interned since the last sync as repair targets and
/// grows the per-key counter table. Called (on the worker thread) after
/// any op that can intern a key.
void sync_tenants_impl(core::PartialLookupService& svc,
                       std::unique_ptr<net::RepairProcess>& repair,
                       std::size_t& known_keys,
                       std::vector<metrics::ShardLookupCounters>& per_key) {
  while (known_keys < svc.num_keys()) {
    repair->add_target(&svc.strategy_at(static_cast<KeyId>(known_keys)));
    ++known_keys;
  }
  if (per_key.size() < svc.num_keys()) per_key.resize(svc.num_keys());
}
}  // namespace

std::optional<KeyId> ShardedRuntime::resolve(Shard& shard, const ShardOp& op,
                                             bool create) {
  if (op.route >= shard.key_ids.size()) {
    shard.key_ids.resize(op.route + std::size_t{1}, kUnresolved);
  }
  KeyId& id = shard.key_ids[op.route];
  if (id == kUnresolved) {
    if (create) {
      id = shard.service->intern_key(*op.key);
    } else if (const auto found = shard.service->key_id(*op.key)) {
      id = *found;
    } else {
      return std::nullopt;
    }
  }
  return id;
}

void ShardedRuntime::worker_loop(Shard& shard) {
  // Empty polls a worker yields through before it parks. A short spin
  // catches the next op of a busy stream without a syscall; past it, an
  // idle worker blocks on its `parked` word (a futex) until the next push
  // wakes it. A parked worker costs no core, so with shards >= cores it
  // steals no timeslice from the one thread that has work, and it wakes
  // when its op arrives rather than at the end of a timed nap.
  constexpr std::uint32_t kIdleYieldPolls = 64;
  std::uint32_t idle_polls = 0;
  for (;;) {
    if (ShardOp* op = shard.queue.front()) {
      idle_polls = 0;
      try {
        execute(shard, *op);
      } catch (...) {
        // An op the service rejects must not take the process down: keep
        // the shard's first error for the control thread (drain()). It may
        // have thrown after interning its key (a storage-budget key's first
        // add), so register the new tenants as a clean return would have.
        if (!shard.error) shard.error = std::current_exception();
        sync_tenants_impl(*shard.service, shard.repair, shard.known_keys,
                          shard.per_key);
      }
      // Release the slot only now: the drain barrier waits on it.
      shard.queue.pop_front();
      continue;
    }
    // The destructor drains before it stops, so an empty ring is final.
    if (stop_.load(std::memory_order_seq_cst)) return;
    if (++idle_polls < kIdleYieldPolls) {
      std::this_thread::yield();
      continue;
    }
    idle_polls = 0;
    // The worker half of the park handshake (push()): announce, then
    // re-check the ring and the stop flag with seq_cst loads, so either
    // the re-check sees the new op (or stop) or its producer sees the
    // announcement and wakes this worker.
    shard.parked.store(1, std::memory_order_seq_cst);
    if (shard.queue.front() == nullptr &&
        !stop_.load(std::memory_order_seq_cst)) {
      shard.parked.wait(1, std::memory_order_seq_cst);
    }
    shard.parked.store(0, std::memory_order_relaxed);
  }
}

void ShardedRuntime::execute(Shard& shard, ShardOp& op) {
  core::PartialLookupService& svc = *shard.service;
  switch (op.kind) {
    // The data-plane ops run by KeyId, exactly as the service's string API
    // would after its own name lookup.
    case ShardOp::Kind::kPlace:
      svc.strategy_at(*resolve(shard, op, true)).place(op.payload->entries);
      sync_tenants_impl(svc, shard.repair, shard.known_keys, shard.per_key);
      break;
    case ShardOp::Kind::kAdd:
      svc.strategy_at(*resolve(shard, op, true)).add(op.value);
      sync_tenants_impl(svc, shard.repair, shard.known_keys, shard.per_key);
      break;
    case ShardOp::Kind::kErase:
      // Deleting from an unknown key is a no-op.
      if (const auto id = resolve(shard, op, false)) {
        svc.strategy_at(*id).erase(op.value);
      }
      break;
    case ShardOp::Kind::kLookup: {
      // An unknown key is §2's empty answer: tallied, never satisfied.
      metrics::ShardLookupCounters delta;
      delta.lookups = 1;
      if (const auto id = resolve(shard, op, false)) {
        const core::LookupResult r = svc.strategy_at(*id).partial_lookup(op.t);
        delta.satisfied = r.satisfied ? 1 : 0;
        delta.servers_contacted = r.servers_contacted;
        delta.entries_returned = r.entries.size();
        shard.per_key[*id].merge(delta);
      }
      shard.totals.merge(delta);
      break;
    }
    case ShardOp::Kind::kFail:
      svc.fail_server(op.server);
      break;
    case ShardOp::Kind::kRecover:
      svc.recover_server(op.server);
      break;
    case ShardOp::Kind::kRecoverAll:
      svc.recover_all();
      break;
    case ShardOp::Kind::kAddHost:
      (void)svc.add_server();
      break;
    case ShardOp::Kind::kRemoveHost:
      svc.remove_server(op.server, op.loss);
      break;
    case ShardOp::Kind::kRepairScan:
      (void)shard.repair->scan_once(op.now);
      break;
    case ShardOp::Kind::kTask:
      op.payload->task(shard.index, svc);
      sync_tenants_impl(svc, shard.repair, shard.known_keys, shard.per_key);
      break;
  }
}

// --- barriers and aggregates ----------------------------------------------

void ShardedRuntime::drain() {
  wait_for_workers();
  for (auto& shard : shards_) {
    if (shard->error) std::rethrow_exception(std::exchange(shard->error, {}));
  }
}

void ShardedRuntime::wait_for_workers() {
  // A worker releases an op's slot only after running it, so an empty ring
  // (an acquire load of its consumer cursor) means every op submitted to
  // the shard has run, and its effects are visible here.
  for (auto& shard : shards_) {
    while (!shard->queue.empty()) std::this_thread::yield();
  }
}

namespace {

void save_lookup_counters(wire::Writer& w,
                          const metrics::ShardLookupCounters& c) {
  w.varint(c.lookups);
  w.varint(c.satisfied);
  w.varint(c.servers_contacted);
  w.varint(c.entries_returned);
}

void load_lookup_counters(wire::Reader& r, metrics::ShardLookupCounters& c) {
  c.lookups = r.varint();
  c.satisfied = r.varint();
  c.servers_contacted = r.varint();
  c.entries_returned = r.varint();
}

}  // namespace

std::vector<std::uint8_t> ShardedRuntime::save_snapshot() {
  drain();
  wire::Writer w;
  w.varint(shards_.size());
  w.varint(num_servers_);
  for (const auto& shard : shards_) {
    const std::vector<std::uint8_t> blob = wire::save_service(*shard->service);
    w.varint(blob.size());
    w.bytes(blob);
    // Shard-local extras (repair bookkeeping + lookup tallies), length-
    // prefixed so the control plane can hand each worker its own slice.
    wire::Writer extras;
    shard->repair->save_state(extras);
    save_lookup_counters(extras, shard->totals);
    extras.varint(shard->per_key.size());
    for (const auto& c : shard->per_key) save_lookup_counters(extras, c);
    // The control-plane op counter: restored so a resumed run reports the
    // same shard_ops() an uninterrupted one would.
    extras.varint(shard->submitted);
    w.varint(extras.size());
    w.bytes(extras.buffer());
  }
  return w.take();
}

std::optional<std::string> ShardedRuntime::load_snapshot(
    std::span<const std::uint8_t> data) {
  // An error an earlier op left for the next drain surfaces here, before
  // any state changes, rather than from the drain behind the load tasks.
  drain();
  wire::Reader r(data);
  const std::uint64_t shard_count = r.varint();
  if (!r.ok() || shard_count != shards_.size()) {
    return "snapshot shard count disagrees with this runtime (snapshots "
           "restore at the shard count they were taken at)";
  }
  const std::uint64_t hosts = r.varint();
  if (!r.ok()) return "truncated runtime snapshot";
  // Everything a worker task needs, parsed control-side. shared_ptr: the
  // task closures are std::functions (copyable) and must outlive this
  // frame until the drain below.
  struct ShardBlob {
    std::vector<std::uint8_t> service;
    std::vector<std::uint8_t> extras;
    std::uint64_t submitted = 0;
    std::optional<std::string> error;
  };
  std::vector<std::shared_ptr<ShardBlob>> blobs;
  blobs.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    auto blob = std::make_shared<ShardBlob>();
    const std::uint64_t n = r.varint();
    if (!r.ok() || n > r.remaining()) return "truncated runtime snapshot";
    const auto service_span = r.bytes(static_cast<std::size_t>(n));
    blob->service.assign(service_span.begin(), service_span.end());
    const std::uint64_t e = r.varint();
    if (!r.ok() || e > r.remaining()) return "truncated runtime snapshot";
    const auto extras_span = r.bytes(static_cast<std::size_t>(e));
    blob->extras.assign(extras_span.begin(), extras_span.end());
    blobs.push_back(std::move(blob));
  }
  if (!r.at_end()) return "malformed runtime snapshot (trailing bytes)";
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    // Loading on the worker thread gives restored state the same thread
    // affinity as live state; sync_tenants_impl (run by execute() after
    // every kTask) then registers the restored tenants as repair targets.
    run_on_shard(s, [this, blob = blobs[s]](std::size_t index,
                                            core::PartialLookupService& svc) {
      Shard& sh = *shards_[index];
      // The worker's half of the route table restarts empty: the restore
      // assigns the KeyIds afresh.
      sh.key_ids.clear();
      try {
        blob->error = wire::load_service(svc, blob->service);
        if (blob->error.has_value()) return;
        wire::Reader er(blob->extras);
        sh.repair->load_state(er);
        load_lookup_counters(er, sh.totals);
        // Each tally is four varints of at least one byte.
        const std::uint64_t keys = er.varint();
        if (!er.ok() || keys > er.remaining() / 4) {
          blob->error = "malformed runtime snapshot (shard extras)";
          return;
        }
        sh.per_key.assign(static_cast<std::size_t>(keys),
                          metrics::ShardLookupCounters{});
        for (auto& c : sh.per_key) load_lookup_counters(er, c);
        blob->submitted = er.varint();
        if (!er.ok() || !er.at_end()) {
          blob->error = "malformed runtime snapshot (shard extras)";
        }
      } catch (const std::exception& ex) {
        // Worker threads must not unwind into the op loop; surface the
        // failure to the control plane instead.
        blob->error = std::string("malformed runtime snapshot: ") + ex.what();
      }
    });
  }
  drain();
  // The coordinator's half of the route table restarts too: rebuilt below
  // from the restored replicas, in KeyId order, so that route index i on a
  // shard names the key its worker resolves to KeyId i.
  keys_.clear();
  for (auto& shard : shards_) shard->routes = 0;
  for (const auto& blob : blobs) {
    if (blob->error.has_value()) return blob->error;
  }
  num_servers_ = static_cast<std::size_t>(hosts);
  // Rewind the op counters to the saved values, covering the load task
  // itself (the drain barrier waits on the rings, not on this count).
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->submitted = blobs[s]->submitted;
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    for (const Key& name : shard.service->key_names()) {
      keys_.try_emplace(name, Route{static_cast<std::uint32_t>(s),
                                    shard.routes++});
    }
  }
  return std::nullopt;
}

metrics::ShardLookupCounters ShardedRuntime::lookup_totals() {
  drain();
  metrics::ShardLookupCounters total;
  for (const auto& shard : shards_) total.merge(shard->totals);
  return total;
}

metrics::ShardLookupCounters ShardedRuntime::key_lookup_totals(
    const Key& key) {
  drain();
  Shard& shard = *shards_[shard_of(key)];
  const auto id = shard.service->key_id(key);
  if (!id.has_value() || *id >= shard.per_key.size()) return {};
  return shard.per_key[*id];
}

net::TransportStats ShardedRuntime::total_transport() {
  drain();
  net::TransportStats total;
  for (const auto& shard : shards_) {
    total.merge(shard->service->total_transport());
  }
  return total;
}

net::TransportStats ShardedRuntime::total_repair_transport() {
  drain();
  net::TransportStats total;
  for (const auto& shard : shards_) {
    total.merge(shard->service->cluster().network().repair_stats());
  }
  return total;
}

net::TransportStats ShardedRuntime::key_transport(const Key& key) {
  drain();
  Shard& shard = *shards_[shard_of(key)];
  if (!shard.service->contains_key(key)) return {};
  return shard.service->key_transport(key);
}

std::uint64_t ShardedRuntime::total_repairs_created() {
  drain();
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->repair->replicas_created();
  return total;
}

std::size_t ShardedRuntime::num_keys() {
  drain();
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->service->num_keys();
  return total;
}

std::size_t ShardedRuntime::total_storage() {
  drain();
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->service->total_storage();
  return total;
}

bool ShardedRuntime::contains_key(const Key& key) {
  drain();
  return shards_[shard_of(key)]->service->contains_key(key);
}

bool ShardedRuntime::shards_consistent() {
  drain();
  const net::FailureState& first = shards_.front()->service->failures();
  for (const auto& shard : shards_) {
    const net::FailureState& f = shard->service->failures();
    if (f.epoch() != first.epoch()) return false;
    if (f.member_count() != first.member_count()) return false;
    if (f.up_count() != first.up_count()) return false;
    if (shard->service->num_servers() != num_servers_) return false;
  }
  return true;
}

core::PartialLookupService& ShardedRuntime::shard_service(std::size_t shard) {
  drain();
  return *shards_[shard]->service;
}

const metrics::ShardLookupCounters& ShardedRuntime::shard_lookups(
    std::size_t shard) {
  drain();
  return shards_[shard]->totals;
}

const net::TransportStats& ShardedRuntime::shard_transport(
    std::size_t shard) {
  drain();
  return shards_[shard]->service->total_transport();
}

std::uint64_t ShardedRuntime::shard_ops(std::size_t shard) const {
  return shards_[shard]->submitted;
}

std::uint64_t ShardedRuntime::shard_queue_peak(std::size_t shard) const {
  return shards_[shard]->queue_peak;
}

}  // namespace pls::sim
