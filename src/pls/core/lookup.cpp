#include "pls/core/lookup.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "pls/common/check.hpp"
#include "pls/common/small_map.hpp"

namespace pls::core {

const char* to_string(LookupStatus status) noexcept {
  switch (status) {
    case LookupStatus::kSatisfied:
      return "satisfied";
    case LookupStatus::kDegraded:
      return "degraded";
    case LookupStatus::kFailed:
      return "failed";
  }
  return "?";
}

const char* to_string(LookupShortfall shortfall) noexcept {
  switch (shortfall) {
    case LookupShortfall::kNone:
      return "none";
    case LookupShortfall::kNoServers:
      return "no-servers";
    case LookupShortfall::kCoverage:
      return "coverage";
    case LookupShortfall::kUnreachable:
      return "unreachable";
    case LookupShortfall::kAttemptBudget:
      return "attempt-budget";
  }
  return "?";
}

void LookupResult::finalize(std::size_t t, bool budget_exhausted,
                            bool gave_up) {
  satisfied = entries.size() >= t;
  if (satisfied) {
    status = LookupStatus::kSatisfied;
    shortfall = LookupShortfall::kNone;
    return;
  }
  status = entries.empty() ? LookupStatus::kFailed : LookupStatus::kDegraded;
  if (budget_exhausted) {
    shortfall = LookupShortfall::kAttemptBudget;
  } else if (gave_up) {
    shortfall = LookupShortfall::kUnreachable;
  } else if (servers_contacted == 0) {
    shortfall = LookupShortfall::kNoServers;
  } else {
    shortfall = LookupShortfall::kCoverage;
  }
}

namespace {

enum class QueryState { kAnswered, kNoReply, kBudgetExhausted };

/// The client's dedup set: inline for answers of up to 32 entries, so a
/// lookup with t <= 32 never touches the heap for it.
using SeenSet = SmallSet<Entry, 32>;

/// Reserves the answer once instead of growing it one push at a time. The
/// reservation is capped so that an absurd t cannot reserve unbounded
/// memory; answers beyond the cap grow as needed.
void reserve_answer(LookupResult& out, std::size_t t) {
  constexpr std::size_t kMaxReserve = 256;
  out.entries.reserve(std::min(t, kMaxReserve));
}

/// The up list in the order a random-order client contacts it: a copy of
/// FailureState's cached list, shuffled in place. The copy lives on the
/// stack for up to kInline servers, so those lookups allocate nothing for
/// it; larger clusters copy to the heap.
class ShuffledUp {
 public:
  ShuffledUp(std::span<const ServerId> up, Rng& rng) {
    if (up.size() <= inline_.size()) {
      order_ = std::span<ServerId>(inline_.data(), up.size());
    } else {
      heap_.resize(up.size());
      order_ = heap_;
    }
    std::copy(up.begin(), up.end(), order_.begin());
    rng.shuffle(order_);
  }
  ShuffledUp(const ShuffledUp&) = delete;
  ShuffledUp& operator=(const ShuffledUp&) = delete;

  std::span<const ServerId> span() const noexcept { return order_; }

 private:
  static constexpr std::size_t kInline = 64;
  std::array<ServerId, kInline> inline_{};
  std::vector<ServerId> heap_;
  std::span<ServerId> order_;
};

/// Sends a LookupRequest to `target` under `policy` (capped by the
/// remaining per-lookup attempt budget), merging distinct entries into
/// `out` and charging the attempt accounting.
QueryState query_one(net::ClusterView& net, ServerId target, std::size_t t,
                     const net::RetryPolicy& policy,
                     std::uint32_t& budget_left, SeenSet& seen,
                     LookupResult& out) {
  std::uint32_t cap = policy.max_attempts;
  if (policy.attempt_budget > 0) {
    if (budget_left == 0) return QueryState::kBudgetExhausted;
    cap = std::min(cap, budget_left);
  }
  const auto call = net.client_call(
      target, net::LookupRequest{static_cast<std::uint32_t>(t)}, policy, cap);
  out.attempts += call.attempts;
  out.retries += call.attempts > 0 ? call.attempts - 1 : 0;
  if (policy.attempt_budget > 0) budget_left -= call.attempts;
  if (!call.reply.has_value()) {
    out.timeouts += call.attempts;
    return QueryState::kNoReply;
  }
  out.timeouts += call.attempts - 1;
  ++out.servers_contacted;
  const auto& payload = std::get<net::LookupReply>(*call.reply);
  for (Entry v : payload.entries) {
    // The client wants exactly t entries; surplus from the final reply is
    // discarded so |entries| never exceeds t (the invariant the property
    // suite asserts). The wire cost is unchanged — the server already
    // sent its answer.
    if (out.entries.size() >= t) break;
    if (seen.insert(v)) out.entries.push_back(v);
  }
  return QueryState::kAnswered;
}

/// The walk every behaviour but stride order shares: asks `order`'s
/// servers in turn for t entries each until t distinct entries are
/// gathered, the attempt budget runs out, or every server has answered or
/// timed out, then finalizes `out` against the satisfaction bar `bar`.
void walk(net::ClusterView& net, std::span<const ServerId> order,
          std::size_t t, std::size_t bar, const net::RetryPolicy& policy,
          LookupResult& out) {
  SeenSet seen;
  std::uint32_t budget = policy.attempt_budget;
  bool budget_out = false, gave_up = false;
  for (ServerId target : order) {
    const auto state = query_one(net, target, t, policy, budget, seen, out);
    if (state == QueryState::kBudgetExhausted) {
      budget_out = true;
      break;
    }
    if (state == QueryState::kNoReply) gave_up = true;
    if (out.entries.size() >= t) break;
  }
  out.finalize(bar, budget_out, gave_up);
}

}  // namespace

LookupResult single_server_lookup(net::ClusterView net, Rng& rng,
                                  std::size_t t,
                                  const net::RetryPolicy& policy) {
  LookupResult out;
  const auto up = net.failures().up();
  if (up.empty()) {
    out.finalize(t, false, false);
    return out;
  }
  // "Select a random server; if it has failed keep selecting until an
  // operational one is found" — equivalent to uniform over the up set.
  const ServerId target = up[rng.uniform(up.size())];
  reserve_answer(out, t);
  walk(net, {&target, 1}, t, t, policy, out);
  return out;
}

LookupResult random_order_lookup(net::ClusterView net, Rng& rng,
                                 std::size_t t,
                                 const net::RetryPolicy& policy) {
  LookupResult out;
  if (net.failures().up().empty()) {
    out.finalize(t, false, false);
    return out;
  }
  const ShuffledUp order(net.failures().up(), rng);
  reserve_answer(out, t);
  walk(net, order.span(), t, t, policy, out);
  return out;
}

LookupResult subset_lookup(net::ClusterView net, Rng& rng, std::size_t t,
                           std::span<const ServerId> candidates,
                           const net::RetryPolicy& policy) {
  LookupResult out;
  std::vector<ServerId> order;
  order.reserve(candidates.size());
  for (ServerId s : candidates) {
    PLS_CHECK_MSG(s < net.size(), "candidate server out of range");
    if (net.is_up(s) &&
        std::find(order.begin(), order.end(), s) == order.end()) {
      order.push_back(s);
    }
  }
  rng.shuffle(std::span<ServerId>(order));
  walk(net, order, t, t, policy, out);
  return out;
}

LookupResult exhaustive_lookup(net::ClusterView net, Rng& rng,
                               const net::RetryPolicy& policy) {
  LookupResult out;
  const ShuffledUp order(net.failures().up(), rng);
  // Exhaustive lookups have no t: every server is asked for everything,
  // and "anything at all" is the satisfaction bar, matching the §7.1
  // exhaustive-preference semantics.
  walk(net, order.span(), std::numeric_limits<std::uint32_t>::max(), 1,
       policy, out);
  return out;
}

LookupResult stride_order_lookup(net::ClusterView net, Rng& rng,
                                 std::size_t t, std::size_t stride,
                                 const net::RetryPolicy& policy) {
  PLS_CHECK_MSG(stride > 0, "stride must be positive");
  LookupResult out;
  // A lookup changes no server state, so the cached up list stays valid for
  // the whole walk.
  const auto up = net.failures().up();
  if (up.empty()) {
    out.finalize(t, false, false);
    return out;
  }

  reserve_answer(out, t);
  SmallSet<ServerId, 16> asked;
  std::size_t asked_up = 0;
  SeenSet seen;
  std::uint32_t budget = policy.attempt_budget;
  bool budget_out = false, gave_up = false;

  auto ask = [&](ServerId target) {
    asked.insert(target);
    if (net.is_up(target)) {
      // Counted as asked even when it never answers: the client spent its
      // retry allowance on it and moves on (degraded mode).
      ++asked_up;
      const auto state = query_one(net, target, t, policy, budget, seen, out);
      if (state == QueryState::kBudgetExhausted) budget_out = true;
      if (state == QueryState::kNoReply) gave_up = true;
    }
  };

  const ServerId start = up[rng.uniform(up.size())];
  ServerId next = start;
  while (out.entries.size() < t && asked_up < up.size() && !budget_out) {
    if (asked.contains(next) || !net.is_up(next)) {
      // §3.4: on failures (or once the deterministic sequence wraps onto an
      // already-asked server) fall back to random operational servers: a
      // uniform pick among the unasked ones, taken as the k-th in up-list
      // order so that no candidate list is allocated.
      std::size_t remaining = 0;
      for (ServerId s : up) {
        if (!asked.contains(s)) ++remaining;
      }
      if (remaining == 0) break;
      std::size_t k = rng.uniform(remaining);
      for (ServerId s : up) {
        if (!asked.contains(s) && k-- == 0) {
          ask(s);
          break;
        }
      }
    } else {
      ask(next);
    }
    // Stride over the member list, not raw ids: Round-Robin deals slots by
    // member rank, so the walk must skip permanently departed servers (the
    // identity mapping until one leaves).
    next = net.member((net.member_index(next) + stride) % net.member_count());
  }
  out.finalize(t, budget_out, gave_up);
  return out;
}

}  // namespace pls::core
