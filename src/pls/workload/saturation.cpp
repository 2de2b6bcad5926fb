#include "pls/workload/saturation.hpp"

#include <algorithm>

#include "pls/common/check.hpp"
#include "pls/common/hashing.hpp"

namespace pls::workload {

namespace {

/// Trace sentinel mixed into coalesced / rejected lookups' fingerprints.
constexpr std::uint64_t kCoalescedTag = 0xc0a1e5ced;
constexpr std::uint64_t kRejectedTag = 0x7e1ec7ed;

}  // namespace

std::uint64_t lookup_fingerprint(const core::LookupResult& r) {
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a offset basis
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  for (const Entry v : r.entries) {
    h = (h ^ v) * kPrime;
  }
  h = (h ^ r.servers_contacted) * kPrime;
  h = (h ^ static_cast<std::uint64_t>(r.satisfied)) * kPrime;
  return h;
}

SaturationEngine::SaturationEngine(core::PartialLookupService& service,
                                   const ProductionWorkload& workload,
                                   const SaturationConfig& config)
    : service_(service), workload_(workload), config_(config) {
  PLS_CHECK_MSG(config_.service_time > 0.0,
                "per-message service time must be positive");
  PLS_CHECK_MSG(config_.deadline >= 0.0, "deadline must be >= 0");
  PLS_CHECK_MSG(config_.admit_backlog_limit >= 0.0,
                "admission backlog limit must be >= 0");
}

double SaturationEngine::charge_servers(double arrival) {
  const auto& cur = service_.total_transport().per_server_processed;
  PLS_CHECK(cur.size() == busy_until_.size());
  // Visit the contacted servers in ascending id: the op's messages queue
  // behind each host's existing backlog, and the op completes when its
  // last server visit finishes.
  touched_.clear();
  double done = arrival;
  for (std::size_t s = 0; s < cur.size(); ++s) {
    PLS_CHECK(cur[s] >= before_[s]);
    const std::uint64_t delta = cur[s] - before_[s];
    if (delta == 0) continue;
    const double start = std::max(done, busy_until_[s]);
    const double finish =
        start + static_cast<double>(delta) * config_.service_time;
    busy_until_[s] = finish;
    done = finish;
    before_[s] = cur[s];
    touched_.push_back(static_cast<ServerId>(s));
  }
  return done;
}

void SaturationEngine::apply_lookup(const ProdEvent& ev,
                                    SaturationStats& stats) {
  const double t = ev.time;
  const std::size_t key = ev.key;
  const KeyId kid = ids_[key];
  const std::size_t n = busy_until_.size();

  ++stats.lookups;
  ++stats.per_key_lookups[key];

  const auto classify = [&](bool protocol_satisfied, double latency) {
    if (protocol_satisfied) {
      stats.per_key_satisfied[key] += 1;
      const bool on_time =
          config_.deadline <= 0.0 || latency <= config_.deadline;
      if (on_time) {
        ++stats.satisfied;
      } else {
        ++stats.satisfied_late;
      }
    } else {
      ++stats.unsatisfied;
    }
    stats.latency.add(latency);
  };

  // Coalescing: the first up host (ascending id) holding a live same-key
  // in-flight record absorbs this lookup — it shares the leader's answer
  // and completion, at zero wire and server cost.
  if (config_.coalesce) {
    const InflightLookup* row = &inflight_[static_cast<std::size_t>(kid) * n];
    for (const ServerId s : service_.failures().up()) {
      const InflightLookup& rec = row[s];
      if (rec.completion <= t) continue;
      ++stats.coalesced;
      classify(rec.satisfied, rec.completion - t);
      if (config_.record_trace) {
        stats.trace.push_back(mix_hash(rec.entries, kCoalescedTag) ^
                              static_cast<std::uint64_t>(rec.satisfied));
      }
      return;
    }
  }

  // Admission control: the lookup's routing is decided inside the
  // protocol, so the gate has to be conservative — shed when ANY up
  // host's backlog exceeds the limit, because that host may be exactly
  // where the lookup lands. This bounds every admitted lookup's queueing
  // delay by the limit, which is what keeps goodput at its plateau under
  // overload instead of collapsing.
  if (config_.admit_backlog_limit > 0.0) {
    double worst_backlog = 0.0;
    for (const ServerId s : service_.failures().up()) {
      worst_backlog = std::max(worst_backlog, busy_until_[s] - t);
    }
    if (worst_backlog > config_.admit_backlog_limit) {
      ++stats.rejected;
      if (config_.record_trace) stats.trace.push_back(kRejectedTag);
      return;
    }
  }

  // Execute the real protocol; the transport deltas tell us which servers
  // worked and how much.
  const core::LookupResult r = service_.strategy_at(kid).partial_lookup(
      workload_.config.target_answer_size);
  const double completion = charge_servers(t);
  ++stats.executed;
  stats.total_servers_contacted += static_cast<double>(r.servers_contacted);
  classify(r.satisfied, completion - t);
  if (config_.record_trace) stats.trace.push_back(lookup_fingerprint(r));

  // Publish the in-flight record on every server this lookup touched, so
  // same-key arrivals before `completion` coalesce onto it.
  if (config_.coalesce) {
    const InflightLookup rec{completion,
                             static_cast<std::uint32_t>(r.entries.size()),
                             r.satisfied};
    for (const ServerId s : touched_) {
      inflight_[static_cast<std::size_t>(kid) * n + s] = rec;
    }
  }
}

SaturationStats SaturationEngine::run() {
  SaturationStats stats;
  const std::size_t num_keys = workload_.keys.size();
  stats.per_key_lookups.assign(num_keys, 0);
  stats.per_key_satisfied.assign(num_keys, 0);
  stats.horizon = workload_.horizon;

  ids_.resize(num_keys);
  for (std::size_t k = 0; k < num_keys; ++k) {
    ids_[k] = service_.intern_key(workload_.keys[k]);
    service_.strategy_at(ids_[k]).place(workload_.initial_entries[k]);
  }
  service_.reset_transport();

  const std::size_t n = service_.num_servers();
  before_.assign(n, 0);
  busy_until_.assign(n, 0.0);
  inflight_.assign(config_.coalesce ? service_.num_keys() * n : 0,
                   InflightLookup{});

  for (const ProdEvent& ev : workload_.events) {
    switch (ev.kind) {
      case ProdEventKind::kLookup:
        apply_lookup(ev, stats);
        break;
      case ProdEventKind::kAdd:
        service_.strategy_at(ids_[ev.key]).add(ev.entry);
        charge_servers(ev.time);
        ++stats.adds;
        break;
      case ProdEventKind::kDelete:
        service_.strategy_at(ids_[ev.key]).erase(ev.entry);
        charge_servers(ev.time);
        ++stats.deletes;
        break;
      case ProdEventKind::kFail:
        PLS_CHECK(ev.server < service_.num_servers());
        service_.fail_server(ev.server);
        ++stats.fail_events;
        break;
      case ProdEventKind::kRecover:
        service_.recover_server(ev.server);
        ++stats.recover_events;
        break;
      case ProdEventKind::kPartitionStart:
        service_.cluster().network().set_partition(
            net::split_partition(service_.num_servers(), ev.aux));
        ++stats.partitions;
        break;
      case ProdEventKind::kPartitionEnd:
        service_.cluster().network().clear_partition();
        break;
    }
  }
  service_.cluster().network().clear_partition();
  return stats;
}

}  // namespace pls::workload
