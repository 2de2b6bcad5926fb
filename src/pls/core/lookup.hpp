// Client-side lookup machinery shared by all strategies.
//
// §3 gives each strategy one of three client behaviours:
//   * single-server (Full Replication, Fixed-x): one random operational
//     server answers; its reply is final.
//   * random-order multi-server (RandomServer-x, Hash-y): keep contacting
//     servers in random order, merging distinct entries, until >= t.
//   * stride-order multi-server (Round-Robin-y): random start s, then
//     s+y, s+2y, ... (disjoint content per step); random fallback on
//     failures.
//
// Every behaviour takes a net::RetryPolicy: on a lossy link each contacted
// server is retried up to policy.max_attempts times, and the whole lookup
// spends at most policy.attempt_budget wire attempts (0 = unlimited).
// A lookup that cannot reach t entries reports *why* through
// LookupResult::status / shortfall — degraded results are first-class, not
// just `satisfied == false`.
#pragma once

#include <cstddef>
#include <vector>

#include "pls/common/rng.hpp"
#include "pls/common/types.hpp"
#include "pls/net/host.hpp"
#include "pls/net/retry_policy.hpp"

namespace pls::core {

/// Coarse outcome of a partial_lookup(t).
enum class LookupStatus : std::uint8_t {
  kSatisfied,  ///< >= t distinct entries returned
  kDegraded,   ///< some entries, but fewer than t
  kFailed,     ///< no entries at all
};

/// Why a lookup returned fewer than t entries.
enum class LookupShortfall : std::uint8_t {
  kNone,           ///< satisfied
  kNoServers,      ///< no operational server to contact
  kCoverage,       ///< every reachable server answered; the cluster simply
                   ///< does not hold t distinct entries
  kUnreachable,    ///< one or more up servers never answered within the
                   ///< retry allowance (lossy link)
  kAttemptBudget,  ///< the per-lookup attempt budget ran out first
};

const char* to_string(LookupStatus status) noexcept;
const char* to_string(LookupShortfall shortfall) noexcept;

/// Result of one partial_lookup(t).
struct LookupResult {
  /// Distinct entries retrieved, in retrieval order; at most t (surplus
  /// from the last server's reply is discarded client-side).
  std::vector<Entry> entries;
  /// Number of servers that answered a lookup request.
  std::size_t servers_contacted = 0;
  /// True when |entries| >= t. Redundant with status, kept because it is
  /// the paper's satisfaction predicate and most call sites want it.
  bool satisfied = false;
  LookupStatus status = LookupStatus::kFailed;
  LookupShortfall shortfall = LookupShortfall::kNone;
  /// Wire attempts issued for lookup requests (>= servers_contacted).
  std::size_t attempts = 0;
  /// Attempts beyond the first per server (retransmissions).
  std::size_t retries = 0;
  /// Attempts that got no reply.
  std::size_t timeouts = 0;

  /// Derives satisfied/status/shortfall from the gathered entries.
  /// `budget_exhausted` / `gave_up` report whether the attempt budget ran
  /// out, resp. whether some up server never answered.
  void finalize(std::size_t t, bool budget_exhausted, bool gave_up);

  friend bool operator==(const LookupResult&, const LookupResult&) = default;
};

/// The lookups take a key-scoped net::ClusterView (by value — it is two
/// words): requests are stamped with the view's key, so attempts are
/// charged to that key's channel whether the cluster is shared or private.
/// Unkeyed callers pass ClusterView(net, kDefaultKey), and
/// net.retry_policy() for the transport's default policy.

/// Contact one random operational server and return its answer verbatim.
LookupResult single_server_lookup(net::ClusterView net, Rng& rng,
                                  std::size_t t,
                                  const net::RetryPolicy& policy);

/// Contact operational servers in uniformly random order until t distinct
/// entries are gathered or every operational server has answered.
LookupResult random_order_lookup(net::ClusterView net, Rng& rng,
                                 std::size_t t,
                                 const net::RetryPolicy& policy);

/// Contact servers s, s+stride, s+2*stride, ... (mod n) from a random
/// operational start. Failed or repeated targets fall back to random
/// operational servers, per §3.4. Stops at t distinct entries or when all
/// operational servers have answered (or timed out).
LookupResult stride_order_lookup(net::ClusterView net, Rng& rng,
                                 std::size_t t, std::size_t stride,
                                 const net::RetryPolicy& policy);

/// Like random_order_lookup but restricted to `candidates` (the reachable
/// servers of a §7.2 limited-reachability client). Down or duplicate
/// candidates are skipped.
LookupResult subset_lookup(net::ClusterView net, Rng& rng, std::size_t t,
                           std::span<const ServerId> candidates,
                           const net::RetryPolicy& policy);

/// Contact every operational server and return everything it stores (the
/// per-server answer cap is lifted). Used by exhaustive preference
/// lookups (§7.1) and diagnostics; costs up-server-count messages.
LookupResult exhaustive_lookup(net::ClusterView net, Rng& rng,
                               const net::RetryPolicy& policy);

}  // namespace pls::core
