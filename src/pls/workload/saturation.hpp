// Overload behaviour: an open-loop queueing replay of a production
// workload against a PartialLookupService.
//
// The paper's §6.3 bottleneck ablation counts messages; this engine turns
// those counts into time. Every message a server processes costs
// `service_time` simulated seconds on that server, so the engine keeps a
// busy horizon per host that arriving work queues behind. A lookup's
// latency is the completion of its last server visit minus its arrival —
// under light load roughly (messages x service_time), past saturation
// dominated by queueing delay. Arrivals are open-loop (the generator's
// timestamps, independent of completions), which is what makes goodput
// *collapse* under overload rather than plateau: work admitted beyond
// capacity still consumes server time but finishes past its deadline.
//
// Two control knobs from the tentpole:
//   * coalescing — a lookup finding a live same-key in-flight record on
//     any up host shares that leader's answer: zero wire messages, zero
//     server time, completion = the leader's.
//   * admission control — with a backlog limit set, a lookup arriving when
//     any up member's backlog exceeds the limit is rejected at the door
//     (counted, no transport), shedding load before it can poison the
//     queues.
//
// With both knobs off the engine issues exactly the same service calls, in
// exactly the same order, as a plain sequential replay of the stream — the
// tier-2 differential grids pin that byte-identity; the queueing arithmetic
// is pure observation.
//
// The load model lives here, not on the hosts: nothing in the transport
// reads it, and in flat engine arrays a lookup's coalescing probe is one
// contiguous row of n records.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "pls/core/service.hpp"
#include "pls/metrics/latency.hpp"
#include "pls/workload/generator.hpp"

namespace pls::workload {

struct SaturationConfig {
  /// Simulated seconds of server time per processed message.
  double service_time = 1.0;
  /// Client deadline: a lookup completing later than arrival + deadline is
  /// counted late (its work is still spent — that is the collapse
  /// mechanism). 0 = no deadline.
  double deadline = 0.0;
  /// Server-side coalescing of concurrent same-key lookups.
  bool coalesce = false;
  /// Admission-control backlog limit applied to every host (0 = off).
  double admit_backlog_limit = 0.0;
  /// Record a per-lookup fingerprint trace (differential tests).
  bool record_trace = false;
};

struct SaturationStats {
  // Client lookups decompose as
  //   lookups == executed + coalesced + rejected,
  // and outcomes (over executed + coalesced) as
  //   satisfied + satisfied_late + unsatisfied + rejected == lookups.
  std::size_t lookups = 0;
  std::size_t executed = 0;
  std::size_t coalesced = 0;
  std::size_t rejected = 0;
  /// Protocol-satisfied and within deadline — the goodput numerator.
  std::size_t satisfied = 0;
  /// Protocol-satisfied but past deadline (wasted work).
  std::size_t satisfied_late = 0;
  /// Executed or coalesced, protocol under target.
  std::size_t unsatisfied = 0;

  std::size_t adds = 0;
  std::size_t deletes = 0;
  std::size_t fail_events = 0;
  std::size_t recover_events = 0;
  std::size_t partitions = 0;

  /// Offered-traffic horizon (the workload's last client arrival).
  double horizon = 0.0;
  double total_servers_contacted = 0.0;

  /// Latency of every completed (executed or coalesced) lookup.
  metrics::LatencyReservoir latency;

  /// Per-key lookup counts and protocol satisfaction (deadline-blind),
  /// indexed by key; the coalescing tolerance checks compare these against
  /// an uncoalesced oracle.
  std::vector<std::uint64_t> per_key_lookups;
  std::vector<std::uint64_t> per_key_satisfied;

  /// Per-lookup fingerprints (entries, contact count, outcome) in arrival
  /// order, when SaturationConfig::record_trace is set. Byte-equality of
  /// two traces pins two runs to identical per-lookup answers.
  std::vector<std::uint64_t> trace;

  /// On-time satisfied lookups per unit offered time.
  double goodput() const noexcept {
    return horizon > 0.0 ? static_cast<double>(satisfied) / horizon : 0.0;
  }
  /// Client lookup arrivals per unit time (includes rejected/coalesced).
  double offered_rate() const noexcept {
    return horizon > 0.0 ? static_cast<double>(lookups) / horizon : 0.0;
  }
};

/// Fingerprint of one lookup answer (FNV-1a over the entries in retrieval
/// order, mixed with the contact count and satisfaction bit). Exposed so
/// differential oracles can fingerprint their own LookupResults.
std::uint64_t lookup_fingerprint(const core::LookupResult& r);

class SaturationEngine {
 public:
  /// The service must be freshly constructed (no keys placed, transport
  /// counters clean); the engine places the workload's catalogue itself.
  SaturationEngine(core::PartialLookupService& service,
                   const ProductionWorkload& workload,
                   const SaturationConfig& config);

  /// Places the catalogue, replays the event stream, returns the stats.
  /// Placement traffic is excluded (transport counters are reset after
  /// placement, before the replay).
  SaturationStats run();

 private:
  /// A lookup in flight on a host, published for server-side coalescing: a
  /// same-key lookup arriving before `completion` shares this one's answer
  /// instead of issuing its own wire traffic. The default record is no
  /// lookup at all: it is live at no time.
  struct InflightLookup {
    double completion = -std::numeric_limits<double>::infinity();
    std::uint32_t entries = 0;
    bool satisfied = false;
  };

  void apply_lookup(const ProdEvent& ev, SaturationStats& stats);
  /// Folds the op's per-server processed deltas into the hosts' busy
  /// horizons, records the touched servers in touched_, and returns the
  /// op's completion time.
  double charge_servers(double arrival);

  core::PartialLookupService& service_;
  const ProductionWorkload& workload_;
  SaturationConfig config_;
  /// The KeyId of each workload key index, resolved once at placement.
  std::vector<KeyId> ids_;
  /// Each host's work horizon in simulated time, indexed by ServerId:
  /// every message the host processes extends it by the service time, so
  /// `busy_until_[s] - now` is host s's queue backlog.
  std::vector<double> busy_until_;
  /// Coalescing records, indexed [KeyId * num_servers + host]; sized only
  /// when coalescing is on. A newer lookup overwrites an older one: the
  /// newest defines the answer followers share.
  std::vector<InflightLookup> inflight_;
  /// per_server_processed snapshot before the op in flight.
  std::vector<std::uint64_t> before_;
  /// Servers the op in flight charged (ascending), refreshed per op.
  std::vector<ServerId> touched_;
};

}  // namespace pls::workload
