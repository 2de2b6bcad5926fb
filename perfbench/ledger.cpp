// The per-layer ledger. A workload's op stream is replayed through each
// layer's public entry point on its own, each time on a fresh instance
// built from the same config and catalogue, so a layer's per-op cost can be
// compared with the layer below it on the same ops:
//
//   lookups: PartialLookupService::partial_lookup -> Strategy::partial_lookup
//            -> the family's client (core/lookup.hpp) -> ClusterView::
//            client_call -> HostServer::on_rpc -> StrategyServer::on_rpc ->
//            EntryStore::sample_into
//   updates: add/erase -> HostServer::on_message -> EntryStore::insert/erase
//
// plus metrics::lookup_satisfiable, a ShardedRuntime (S = 1) replay, repair
// passes after each recovery, the Simulator over the stream's timeline,
// SaturationEngine against a plain replay, and wire save/load. Ledger instances draw their own Rng streams
// and charge their own transport; they never touch the instance whose
// outputs the workload checks. Every measured call opens a span carrying
// the op's index, so spans of one op line up across layers.
#include <algorithm>
#include <array>
#include <memory>
#include <string>

#include "bench.hpp"
#include "pls/common/alloc_stats.hpp"
#include "pls/common/rng.hpp"
#include "pls/core/lookup.hpp"
#include "pls/metrics/availability.hpp"
#include "pls/net/repair.hpp"
#include "pls/runtime/sharded_runtime.hpp"
#include "pls/sim/simulator.hpp"
#include "pls/wire/snapshot.hpp"
#include "pls/workload/saturation.hpp"

namespace perfbench {
namespace {

using namespace pls;

/// Wall time and allocation counts summed over the measured calls.
struct Meter {
  double ns = 0.0;
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t calls = 0;

  double ns_per(double n) const { return n > 0 ? ns / n : 0.0; }
};

/// Measures one call: a span, the wall time and the allocation delta.
class Probe {
 public:
  Probe(Meter& m, Tracer* tr, const char* name, std::uint64_t op,
        std::int64_t parent = -1)
      : m_(m),
        span_(tr, name, op, parent),
        a0_(AllocStats::current()),
        t0_(now_ns()) {}
  ~Probe() {
    const std::uint64_t t1 = now_ns();
    const AllocStats a1 = AllocStats::current();
    m_.ns += static_cast<double>(t1 - t0_);
    m_.allocs += a1.allocations - a0_.allocations;
    m_.bytes += a1.bytes - a0_.bytes;
    ++m_.calls;
  }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

 private:
  Meter& m_;
  ScopedSpan span_;
  AllocStats a0_;
  std::uint64_t t0_;
};

constexpr std::array<const char*, 6> kFamilyNames = {
    "full", "fixed", "randomserver", "round", "hash", "multiprobe"};

std::size_t family_index(core::StrategyKind kind) {
  switch (kind) {
    case core::StrategyKind::kFullReplication: return 0;
    case core::StrategyKind::kFixed: return 1;
    case core::StrategyKind::kRandomServer: return 2;
    case core::StrategyKind::kRoundRobin: return 3;
    case core::StrategyKind::kHash: return 4;
    case core::StrategyKind::kMultiProbe: return 5;
  }
  return 0;
}

std::unique_ptr<core::PartialLookupService> build(const LedgerInput& in) {
  auto svc = std::make_unique<core::PartialLookupService>(in.config);
  for (std::size_t k = 0; k < in.keys.size(); ++k) {
    svc->place(in.keys[k], in.initial[k]);
  }
  return svc;
}

/// Applies an op through the service without measuring it.
void apply(core::PartialLookupService& svc, const LedgerInput& in,
           const Op& op) {
  switch (op.kind) {
    case Op::Kind::kLookup:
      (void)svc.partial_lookup(in.keys[op.key], in.t);
      break;
    case Op::Kind::kAdd: svc.add(in.keys[op.key], op.entry); break;
    case Op::Kind::kErase: svc.erase(in.keys[op.key], op.entry); break;
    default: apply_control(svc, op); break;
  }
}

/// Client-side counters of one op kind, from transport deltas.
struct NetCounts {
  std::uint64_t ops = 0, processed = 0, retries = 0, dup_suppressed = 0,
                dropped_link = 0, dropped_down = 0, dropped_partition = 0;

  void add_delta(const net::TransportStats& after,
                 const net::TransportStats& before) {
    ++ops;
    processed += after.processed - before.processed;
    retries += after.retries - before.retries;
    dup_suppressed += after.dup_suppressed - before.dup_suppressed;
    dropped_link += after.dropped_link - before.dropped_link;
    dropped_down += after.dropped_down - before.dropped_down;
    dropped_partition += after.dropped_partition - before.dropped_partition;
  }
};

/// Scalar copy of the transport counters (no per-server vector), so taking
/// one per op allocates nothing.
net::TransportStats scalars(const net::TransportStats& s) {
  net::TransportStats c;
  c.sent = s.sent;
  c.processed = s.processed;
  c.retries = s.retries;
  c.dup_suppressed = s.dup_suppressed;
  c.dropped_link = s.dropped_link;
  c.dropped_down = s.dropped_down;
  c.dropped_partition = s.dropped_partition;
  return c;
}

workload::ProdEvent to_event(const Op& op) {
  workload::ProdEvent ev;
  ev.time = op.time;
  ev.key = op.key;
  ev.entry = op.entry;
  ev.server = op.server;
  ev.aux = op.aux;
  switch (op.kind) {
    case Op::Kind::kLookup: ev.kind = workload::ProdEventKind::kLookup; break;
    case Op::Kind::kAdd: ev.kind = workload::ProdEventKind::kAdd; break;
    case Op::Kind::kErase: ev.kind = workload::ProdEventKind::kDelete; break;
    case Op::Kind::kFail: ev.kind = workload::ProdEventKind::kFail; break;
    case Op::Kind::kRecover: ev.kind = workload::ProdEventKind::kRecover; break;
    case Op::Kind::kPartitionStart:
      ev.kind = workload::ProdEventKind::kPartitionStart;
      break;
    case Op::Kind::kPartitionEnd:
      ev.kind = workload::ProdEventKind::kPartitionEnd;
      break;
  }
  return ev;
}

/// Submits one client op to the runtime without measuring it.
void submit_op(sim::ShardedRuntime& rt, const LedgerInput& in, const Op& op) {
  switch (op.kind) {
    case Op::Kind::kLookup: rt.lookup(in.keys[op.key], in.t); break;
    case Op::Kind::kAdd: rt.add(in.keys[op.key], op.entry); break;
    default: rt.erase(in.keys[op.key], op.entry); break;
  }
}

std::string fmt(double v) { return std::to_string(v); }

}  // namespace

RepairFigures run_repair_ledger(const LedgerInput& in, const Options& opt,
                                Tracer* tr) {
  RepairFigures out;
  const bool recovers =
      std::any_of(in.ops.begin(), in.ops.end(),
                  [](const Op& op) { return op.kind == Op::Kind::kRecover; });
  if (!recovers) return out;
  auto svc = build(in);
  // Scans are driven here, after each recovery, as the sharded runtime's
  // control plane drives them; the interval is unused.
  net::RepairProcess process(svc->cluster().failures(),
                             net::RepairProcess::Config{1.0});
  for (std::size_t k = 0; k < in.keys.size(); ++k) {
    process.add_target(&svc->strategy_at(static_cast<KeyId>(k)));
  }
  Meter pass;
  for (std::size_t i = 0; i < in.ops.size(); ++i) {
    const Op& op = in.ops[i];
    apply(*svc, in, op);
    if (op.kind != Op::Kind::kRecover) continue;
    Probe p(pass, tr, "net.repair.scan_once", i);
    (void)process.scan_once(op.time);
  }
  svc->cluster().network().clear_partition();
  const net::TransportStats& stats = svc->cluster().network().repair_stats();
  check(opt, "repair_transport_conserved", stats.conservation_holds());
  out.passes = pass.calls;
  out.pass_ns = pass.ns;
  out.replicas = process.replicas_created();
  out.processed = stats.processed;
  return out;
}

void run_ledger(const LedgerInput& in, const Options& opt, Result& out,
                Tracer* tr) {
  const bool allocs = opt.mode == "allocs";
  const std::size_t K = in.keys.size();
  const double keys = static_cast<double>(K);
  double lookups = 0.0, updates = 0.0;
  for (const Op& op : in.ops) {
    lookups += op.kind == Op::Kind::kLookup ? 1.0 : 0.0;
    updates += op.kind == Op::Kind::kAdd || op.kind == Op::Kind::kErase ? 1.0
                                                                        : 0.0;
  }
  const double clients = lookups + updates;
  Rng rng(opt.seed ^ 0x6c6564676572ULL);

  // --- pass 1: the service, plus what the lower passes replay -----------
  // Per lookup op, the servers that processed its requests.
  std::vector<std::vector<ServerId>> calls(in.ops.size());
  Meter place, svc_lookup, svc_update, satisfiable;
  NetCounts net_lookup, net_update;
  double contacted = 0.0, attempts = 0.0;
  double stale_share = 0.0, spilled_share = 0.0;
  std::vector<std::uint8_t> snap;
  Meter save, load;
  double live_bytes = 0.0;
  {
    const AllocStats before = AllocStats::current();
    std::unique_ptr<core::PartialLookupService> svc;
    {
      Probe p(place, tr, "ledger.service.place", 0);
      svc = build(in);
    }
    live_bytes = static_cast<double>(AllocStats::current().live_bytes -
                                     before.live_bytes);
    const auto& stats = svc->total_transport();
    std::vector<std::uint64_t> per_server(svc->num_servers(), 0);
    for (std::size_t i = 0; i < in.ops.size(); ++i) {
      const Op& op = in.ops[i];
      const Key& key = in.keys[op.key];
      const net::TransportStats pre = scalars(stats);
      if (op.kind == Op::Kind::kLookup) {
        std::copy_n(stats.per_server_processed.begin(),
                    std::min(per_server.size(),
                             stats.per_server_processed.size()),
                    per_server.begin());
        core::LookupResult res;
        {
          Probe p(svc_lookup, tr, "core.service.partial_lookup", i);
          res = svc->partial_lookup(key, in.t);
        }
        net_lookup.add_delta(stats, pre);
        contacted += static_cast<double>(res.servers_contacted);
        attempts += static_cast<double>(res.attempts);
        for (std::size_t s = 0; s < stats.per_server_processed.size() &&
                                s < per_server.size();
             ++s) {
          if (stats.per_server_processed[s] > per_server[s]) {
            calls[i].push_back(static_cast<ServerId>(s));
          }
        }
      } else if (op.client()) {
        {
          Probe p(svc_update, tr, "core.service.update", i);
          if (op.kind == Op::Kind::kAdd) {
            svc->add(key, op.entry);
          } else {
            svc->erase(key, op.entry);
          }
        }
        net_update.add_delta(stats, pre);
      } else {
        apply_control(*svc, op);
      }
    }
    svc->cluster().network().clear_partition();

    // Stored entries that are not live per the stream's ground truth, and
    // tenant stores that spilled past their inline capacity.
    std::vector<std::vector<Entry>> live = in.initial;
    for (const Op& op : in.ops) {
      auto& pool = live[op.key];
      if (op.kind == Op::Kind::kAdd) {
        pool.push_back(op.entry);
      } else if (op.kind == Op::Kind::kErase) {
        const auto it = std::find(pool.begin(), pool.end(), op.entry);
        if (it != pool.end()) pool.erase(it);
      }
    }
    double stored = 0.0, stale = 0.0, stores = 0.0, spilled = 0.0;
    for (std::size_t k = 0; k < K; ++k) {
      auto& pool = live[k];
      std::sort(pool.begin(), pool.end());
      const core::Strategy& st = svc->strategy_at(static_cast<KeyId>(k));
      for (ServerId s = 0; s < st.num_servers(); ++s) {
        const core::EntryStore& store = st.server_state(s).store();
        stores += 1.0;
        spilled += store.is_inline() ? 0.0 : 1.0;
        for (const Entry v : store.entries()) {
          stored += 1.0;
          if (!std::binary_search(pool.begin(), pool.end(), v)) stale += 1.0;
        }
      }
    }
    stale_share = stored > 0 ? stale / stored : 0.0;
    spilled_share = stores > 0 ? spilled / stores : 0.0;

    {
      Probe p(save, tr, "wire.save_service", 0);
      snap = wire::save_service(*svc);
    }
    std::unique_ptr<core::PartialLookupService> restored;
    std::optional<std::string> err;
    {
      Probe p(load, tr, "wire.load_service", 0);
      restored = std::make_unique<core::PartialLookupService>(in.config);
      err = wire::load_service(*restored, snap);
    }
    check(opt, "ledger_wire_roundtrip",
          !err.has_value() && wire::save_service(*restored) == snap);
  }

  // --- pass 2: Strategy::partial_lookup / add / erase -------------------
  std::array<Meter, 6> fam_lookup, fam_update;
  Meter st_lookup, st_update;
  {
    auto svc = build(in);
    for (std::size_t i = 0; i < in.ops.size(); ++i) {
      const Op& op = in.ops[i];
      if (!op.client()) {
        apply_control(*svc, op);
        continue;
      }
      core::Strategy& st = svc->strategy_at(static_cast<KeyId>(op.key));
      const std::size_t f = family_index(st.kind());
      const auto n0 = std::pair{st_lookup.ns, st_update.ns};
      if (op.kind == Op::Kind::kLookup) {
        Probe p(st_lookup, tr, "core.strategy.partial_lookup", i);
        (void)st.partial_lookup(in.t);
      } else {
        Probe p(st_update, tr, "core.strategy.update", i);
        if (op.kind == Op::Kind::kAdd) {
          st.add(op.entry);
        } else {
          st.erase(op.entry);
        }
      }
      if (op.kind == Op::Kind::kLookup) {
        fam_lookup[f].ns += st_lookup.ns - n0.first;
        ++fam_lookup[f].calls;
      } else {
        fam_update[f].ns += st_update.ns - n0.second;
        ++fam_update[f].calls;
      }
    }
  }

  // --- pass 3: the family's lookup client -------------------------------
  Meter client;
  {
    auto svc = build(in);
    for (std::size_t i = 0; i < in.ops.size(); ++i) {
      const Op& op = in.ops[i];
      if (op.kind != Op::Kind::kLookup) {
        apply(*svc, in, op);
        continue;
      }
      core::Strategy& st = svc->strategy_at(static_cast<KeyId>(op.key));
      const net::RetryPolicy policy = st.retry_policy();
      Probe p(client, tr, "core.lookup.client", i);
      switch (st.kind()) {
        case core::StrategyKind::kFullReplication:
        case core::StrategyKind::kFixed:
          (void)core::single_server_lookup(st.cluster_view(), rng, in.t,
                                           policy);
          break;
        case core::StrategyKind::kRoundRobin:
          (void)core::stride_order_lookup(st.cluster_view(), rng, in.t,
                                          st.config().param, policy);
          break;
        default:
          (void)core::random_order_lookup(st.cluster_view(), rng, in.t,
                                          policy);
          break;
      }
    }
  }

  // --- metrics::lookup_satisfiable at every lookup (it sends nothing) -----
  {
    auto svc = build(in);
    for (std::size_t i = 0; i < in.ops.size(); ++i) {
      const Op& op = in.ops[i];
      if (op.kind != Op::Kind::kLookup) {
        apply(*svc, in, op);
        continue;
      }
      Probe p(satisfiable, tr, "metrics.lookup_satisfiable", i);
      (void)metrics::lookup_satisfiable(
          svc->strategy_at(static_cast<KeyId>(op.key)), in.t);
    }
  }

  // --- passes 4-7: the calls pass 1 made, one layer down at a time -------
  Meter call, host_rpc, tenant_rpc, sample, host_msg, insert, erase;
  for (int layer = 4; layer <= 7; ++layer) {
    auto svc = build(in);
    net::Network& network = svc->cluster().network();
    std::vector<Entry> buf;
    std::vector<core::EntryStore> scratch(layer == 7 ? K : 0);
    std::vector<bool> seeded(scratch.size(), false);
    for (std::size_t i = 0; i < in.ops.size(); ++i) {
      const Op& op = in.ops[i];
      const KeyId id = static_cast<KeyId>(op.key);
      core::Strategy& st = svc->strategy_at(id);
      if (op.kind != Op::Kind::kLookup) {
        if (op.client() && layer == 5 &&
            st.kind() != core::StrategyKind::kRoundRobin) {
          // The client's update request as the receiving host handles it
          // (Round-Robin routes updates through its coordinator; its keys
          // take the service path below).
          const auto up = svc->failures().up_servers();
          if (!up.empty()) {
            net::Message m = op.kind == Op::Kind::kAdd
                                 ? net::Message(net::AddRequest{op.entry})
                                 : net::Message(net::DeleteRequest{op.entry});
            m.key = id;
            Probe p(host_msg, tr, "net.host.on_message", i);
            svc->cluster().host(up[rng.uniform(up.size())]).on_message(
                m, network);
            continue;
          }
        }
        if (op.client() && layer == 7) {
          if (!seeded[op.key]) {
            for (const Entry v : in.initial[op.key]) scratch[op.key].insert(v);
            seeded[op.key] = true;
          }
          if (op.kind == Op::Kind::kAdd) {
            Probe p(insert, tr, "core.entry_store.insert", i);
            scratch[op.key].insert(op.entry);
          } else {
            Probe p(erase, tr, "core.entry_store.erase", i);
            scratch[op.key].erase(op.entry);
          }
        }
        apply(*svc, in, op);
        continue;
      }
      net::Message m(net::LookupRequest{static_cast<std::uint32_t>(in.t)});
      m.key = id;
      for (const ServerId s : calls[i]) {
        if (!svc->failures().is_up(s)) continue;
        switch (layer) {
          case 4: {
            net::ClusterView view = st.cluster_view();
            const net::RetryPolicy& policy = st.retry_policy();
            Probe p(call, tr, "net.client_call", i);
            (void)view.client_call(s, m, policy, policy.max_attempts);
            break;
          }
          case 5: {
            Probe p(host_rpc, tr, "net.host.on_rpc", i);
            (void)svc->cluster().host(s).on_rpc(m, network);
            break;
          }
          case 6: {
            net::Tenant* tenant = svc->cluster().host(s).tenant(id);
            net::ClusterView view(network, id);
            Probe p(tenant_rpc, tr, "core.tenant.on_rpc", i);
            (void)tenant->on_rpc(m, view);
            break;
          }
          default: {
            const core::EntryStore& store = st.server_state(s).store();
            Probe p(sample, tr, "core.entry_store.sample_into", i);
            store.sample_into(in.t, rng, buf);
            break;
          }
        }
      }
    }
  }

  // --- ShardedRuntime at S = 1: routed per-op, submit, drain -------------
  // Two passes on fresh runtimes: the first times whole batches (submits and
  // drain) with nothing nested inside them, so the routed per-op time carries
  // no probe cost of its own; the second times each submit and each drain.
  Meter submit, drain, batch;
  std::uint64_t queue_peak = 0;
  for (const bool per_call : {false, true}) {
    sim::ShardedRuntimeConfig rc;
    rc.shards = 1;
    rc.service = in.config;
    sim::ShardedRuntime rt(rc);
    for (std::size_t k = 0; k < K; ++k) rt.place(in.keys[k], in.initial[k]);
    rt.drain();
    std::size_t i = 0;
    while (i < in.ops.size()) {
      const Op& first = in.ops[i];
      if (!first.client()) {
        if (first.kind == Op::Kind::kFail) rt.fail_server(first.server);
        if (first.kind == Op::Kind::kRecover) rt.recover_server(first.server);
        if (first.kind == Op::Kind::kPartitionStart ||
            first.kind == Op::Kind::kPartitionEnd) {
          const Op op = first;
          rt.run_on_shards([op](std::size_t, core::PartialLookupService& s) {
            apply_control(s, op);
          });
        }
        ++i;
        continue;
      }
      const std::size_t start = i;
      std::size_t end = i;
      while (end < in.ops.size() && end - start < 256 && in.ops[end].client()) {
        ++end;
      }
      if (per_call) {
        for (; i < end; ++i) {
          Probe p(submit, tr, "ledger.runtime.submit", i);
          submit_op(rt, in, in.ops[i]);
        }
        Probe d(drain, tr, "ledger.runtime.drain", start);
        rt.drain();
      } else {
        Probe b(batch, tr, "ledger.runtime.batch", start);
        for (; i < end; ++i) submit_op(rt, in, in.ops[i]);
        rt.drain();
      }
    }
    if (!per_call) queue_peak = rt.shard_queue_peak(0);
    rt.run_on_shards([](std::size_t, core::PartialLookupService& s) {
      s.cluster().network().clear_partition();
    });
  }

  // --- RepairProcess::scan_once after every recovery ---------------------
  const RepairFigures repair =
      allocs ? RepairFigures{} : run_repair_ledger(in, opt, tr);

  // --- the stream's timeline on the Simulator, no-op callbacks -----------
  Meter timeline;
  {
    sim::Simulator sim;
    std::uint64_t fired = 0;
    {
      Probe p(timeline, tr, "sim.schedule_run", 0);
      for (const Op& op : in.ops) {
        sim.schedule_at(op.time, [&fired] { ++fired; });
      }
      sim.run_all();
    }
    check(opt, "ledger_timeline_complete", fired == in.ops.size());
  }

  // --- SaturationEngine (both features off) against a plain replay ------
  // Both place the whole catalogue inside the timed call, which on the
  // routed catalogues costs far more than the ops; the two alternate
  // kEngineRepeats times and each keeps its least time, so that their
  // difference is not the host's noise.
  constexpr int kEngineRepeats = 3;
  double engine_ns = 0.0, plain_ns = 0.0;
  {
    workload::ProductionWorkload pw;
    pw.keys = in.keys;
    pw.initial_entries = in.initial;
    for (const Op& op : in.ops) {
      pw.events.push_back(to_event(op));
      if (op.client()) pw.horizon = op.time;
    }
    pw.config.target_answer_size = in.t;
    for (int rep = 0; rep < kEngineRepeats; ++rep) {
      Meter engine, plain;
      core::PartialLookupService a(in.config);
      workload::SaturationEngine eng(a, pw, {.service_time = 1.0});
      {
        Probe p(engine, tr, "workload.engine.run", 0);
        (void)eng.run();
      }
      core::PartialLookupService b(in.config);
      {
        Probe p(plain, tr, "ledger.plain_replay", 0);
        for (std::size_t k = 0; k < K; ++k) b.place(in.keys[k], in.initial[k]);
        b.reset_transport();
        for (const Op& op : in.ops) apply(b, in, op);
        b.cluster().network().clear_partition();
      }
      check(opt, "engine_matches_plain_replay",
            a.total_transport() == b.total_transport());
      engine_ns = rep == 0 ? engine.ns : std::min(engine_ns, engine.ns);
      plain_ns = rep == 0 ? plain.ns : std::min(plain_ns, plain.ns);
    }
  }

  const double events = static_cast<double>(in.ops.size());
  double calls_total = 0.0;
  for (const auto& c : calls) calls_total += static_cast<double>(c.size());

  if (allocs) {
    const auto per = [&](const std::string& name, const Meter& m, double n) {
      out.set(name + ".allocs_per_op",
              n > 0 ? static_cast<double>(m.allocs) / n : 0.0, "count");
      out.set(name + ".bytes_per_op",
              n > 0 ? static_cast<double>(m.bytes) / n : 0.0, "bytes");
    };
    per("runtime", batch, clients);
    per("core.service", svc_lookup, lookups);
    per("core.strategy", st_lookup, lookups);
    per("core.lookup", client, lookups);
    per("net.client_call", call, lookups);
    per("core.tenant", tenant_rpc, lookups);
    per("core.entry_store", sample, lookups);
    per("metrics.satisfiable", satisfiable, lookups);
    out.set("core.service.live_bytes_per_key", live_bytes / keys, "bytes");
    out.note("update path allocs per op: service " +
             fmt(updates > 0 ? static_cast<double>(svc_update.allocs) / updates
                             : 0.0) +
             ", strategy " +
             fmt(updates > 0 ? static_cast<double>(st_update.allocs) / updates
                             : 0.0));
    return;
  }

  // Per-op times (lookup path: per lookup op; calls below the client are
  // summed over the op's calls, so consecutive layers subtract directly).
  const double t_service = svc_lookup.ns_per(lookups);
  const double t_strategy = st_lookup.ns_per(lookups);
  const double t_client = client.ns_per(lookups);
  const double t_call = call.ns_per(lookups);
  const double t_host = host_rpc.ns_per(lookups);
  const double t_tenant = tenant_rpc.ns_per(lookups);
  const double t_store = sample.ns_per(lookups);
  const double routed = batch.ns_per(clients);
  const double submit_ns = submit.ns_per(static_cast<double>(submit.calls));

  out.set("runtime.submit_ns", submit_ns, "ns");
  out.set("runtime.drain_wait_us",
          drain.ns_per(static_cast<double>(drain.calls)) / 1e3, "us");
  out.set("runtime.routed_ns_per_op", routed, "ns");
  out.set("runtime.queue_peak", static_cast<double>(queue_peak), "count");
  out.set("runtime.shard_skew", 1.0, "ratio");
  out.set("core.service.lookup_ns", t_service, "ns");
  out.set("core.service.resolve_ns", t_service - t_strategy, "ns");
  out.set("core.service.place_us_per_key", place.ns / 1e3 / keys, "us");
  out.set("core.strategy.lookup_ns", t_strategy, "ns");
  for (std::size_t f = 0; f < 6; ++f) {
    out.set(std::string("core.strategy.lookup_ns.") + kFamilyNames[f],
            fam_lookup[f].ns_per(static_cast<double>(fam_lookup[f].calls)),
            "ns");
  }
  out.set("core.lookup.client_ns", t_client, "ns");
  out.set("core.lookup.servers_per_op", contacted / lookups, "count");
  out.set("core.lookup.attempts_per_op", attempts / lookups, "count");
  out.set("core.lookup.reply_yield", attempts > 0 ? contacted / attempts : 0.0,
          "fraction");
  out.set("net.client_call_ns", call.ns_per(static_cast<double>(call.calls)),
          "ns");
  out.set("net.host.on_rpc_ns",
          host_rpc.ns_per(static_cast<double>(host_rpc.calls)), "ns");
  const auto per_client = [&](std::uint64_t NetCounts::*field) {
    return clients > 0 ? static_cast<double>(net_lookup.*field +
                                             net_update.*field) /
                             clients
                       : 0.0;
  };
  out.set("net.processed_per_lookup",
          static_cast<double>(net_lookup.processed) / lookups, "count");
  out.set("net.processed_per_update",
          updates > 0 ? static_cast<double>(net_update.processed) / updates
                      : 0.0,
          "count");
  out.set("net.retries_per_op", per_client(&NetCounts::retries), "count");
  out.set("net.dup_suppressed_per_op", per_client(&NetCounts::dup_suppressed),
          "count");
  out.set("net.dropped_link_per_op", per_client(&NetCounts::dropped_link),
          "count");
  out.set("net.dropped_down_per_op", per_client(&NetCounts::dropped_down),
          "count");
  out.set("net.dropped_partition_per_op",
          per_client(&NetCounts::dropped_partition), "count");
  out.set("core.tenant.on_rpc_ns",
          tenant_rpc.ns_per(static_cast<double>(tenant_rpc.calls)), "ns");
  out.set("core.entry_store.sample_ns",
          sample.ns_per(static_cast<double>(sample.calls)), "ns");
  out.set("core.entry_store.spilled_share", spilled_share, "fraction");
  out.set("core.stale_share", stale_share, "fraction");
  out.set("wire.save_ns_per_key", save.ns / keys, "ns");
  out.set("wire.load_ns_per_key", load.ns / keys, "ns");
  out.set("wire.bytes_per_key", static_cast<double>(snap.size()) / keys,
          "bytes");
  out.set("workload.engine_ns_per_event", engine_ns / events, "ns");
  out.set("workload.engine_self_ns_per_event", (engine_ns - plain_ns) / events,
          "ns");
  out.set("workload.coalesced_share", 0.0, "fraction");
  out.set("workload.rejected_share", 0.0, "fraction");
  out.set("sim.schedule_pop_ns", timeline.ns / events, "ns");
  out.set("sim.trial_busy_share", 0.0, "fraction");
  const double passes = static_cast<double>(repair.passes);
  const auto per_pass = [&](double v) { return passes > 0 ? v / passes : 0.0; };
  out.set("net.repair.pass_ms", per_pass(repair.pass_ns / 1e6), "ms");
  out.set("net.repair.replicas_per_pass",
          per_pass(static_cast<double>(repair.replicas)), "count");
  out.set("net.repair.processed_per_pass",
          per_pass(static_cast<double>(repair.processed)), "count");
  if (passes == 0) {
    out.note("net.repair.*: not measured, this stream has no recoveries");
  } else {
    out.note("repair: " + fmt(passes) + " passes, one after each recovery");
  }
  out.set("metrics.satisfiable_ns",
          satisfiable.ns_per(static_cast<double>(satisfiable.calls)), "ns");
  const double self_sum = (t_service - t_strategy) + (t_strategy - t_client) +
                          (t_client - t_call) + (t_call - t_host) +
                          (t_host - t_tenant) + (t_tenant - t_store) + t_store;
  // Closure: the routed per-op time minus the layers' summed self times on
  // the same ops. The runtime's own cost (submit, rings, wake-ups) is what
  // remains, less whatever the coordinator overlaps with the worker.
  const double client_path =
      (svc_lookup.ns + svc_update.ns) / (clients > 0 ? clients : 1.0);
  out.set("ledger.closure_residual_ns", routed - client_path, "ns");

  out.note("ledger over " + fmt(lookups) + " lookups, " + fmt(updates) +
           " updates, " + fmt(keys) + " keys; calls per lookup " +
           fmt(calls_total / lookups));
  out.note("lookup self ns/op: resolve " + fmt(t_service - t_strategy) +
           ", strategy " + fmt(t_strategy - t_client) + ", client " +
           fmt(t_client - t_call) + ", transport " + fmt(t_call - t_host) +
           ", host dispatch " + fmt(t_host - t_tenant) + ", tenant " +
           fmt(t_tenant - t_store) + ", entry store " + fmt(t_store) +
           " (sum " + fmt(self_sum) + ")");
  out.note("closure: routed S=1 ns/client op " + fmt(routed) +
           " - layer self times " + fmt(client_path) + " = " +
           fmt(routed - client_path) + " (" +
           fmt(routed > 0 ? 100.0 * (routed - client_path) / routed : 0.0) +
           "% of routed; coordinator submit " + fmt(submit_ns) + " ns/op)");
  if (updates > 0) {
    std::string fam;
    for (std::size_t f = 0; f < 6; ++f) {
      const Meter& m = fam_update[f];
      fam += std::string(" ") + kFamilyNames[f] + "=" +
             fmt(m.ns_per(static_cast<double>(m.calls)));
    }
    out.note("update path ns/op: core.service.update_ns " +
             fmt(svc_update.ns_per(updates)) + ", core.strategy.update_ns " +
             fmt(st_update.ns_per(updates)) + " (per family:" + fam +
             "), net.host.on_message_ns " +
             fmt(host_msg.ns_per(static_cast<double>(host_msg.calls))) +
             " (Round-Robin keys excluded), core.entry_store.insert_ns " +
             fmt(insert.ns_per(static_cast<double>(insert.calls))) +
             ", core.entry_store.erase_ns " +
             fmt(erase.ns_per(static_cast<double>(erase.calls))));
  } else {
    out.note("update path: not measured, this stream has no updates");
  }
}

}  // namespace perfbench
