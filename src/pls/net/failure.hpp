// Shared server lifecycle state: up / down-transient / gone.
//
// The multi-key service facade gives every per-key strategy a view of the
// same FailureState, so injected server failures correlate across keys the
// way they would on a real cluster.
//
// Elastic membership extends the original boolean up/down vector to three
// states: kUp and kDown are the paper's transient crash/recover pair; kGone
// marks a server that left the cluster for good (scale-in, or a machine
// declared dead). Server ids are never reused — a gone slot stays a
// tombstone — so every historical id remains a valid index into per-server
// tables. The *member list* (all non-gone ids, ascending) is cached and
// rebuilt only on membership changes, giving placement arithmetic O(1)
// allocation-free id<->rank mapping; while no server has ever left, rank i
// IS id i, which keeps pre-membership behaviour byte-identical.
//
// Every state transition bumps a monotonically increasing change epoch, so
// background processes (repair scans, strategies) can early-out when
// nothing changed since their last look. The *up list* (all operational
// ids, ascending) is cached the same way and refreshed on every state
// change, so a lookup client reads it without building a vector.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "pls/common/check.hpp"
#include "pls/common/types.hpp"

namespace pls::net {

enum class ServerState : std::uint8_t {
  kUp,    ///< operational
  kDown,  ///< transiently failed; comes back (possibly wiped)
  kGone,  ///< left the cluster permanently; the id is a tombstone
};

class FailureState {
 public:
  explicit FailureState(std::size_t num_servers);

  /// Total ids ever allocated, including gone tombstones.
  std::size_t size() const noexcept { return state_.size(); }
  ServerState state(ServerId s) const;
  /// Every send attempt and broadcast target asks, so both are inline.
  bool is_up(ServerId s) const {
    PLS_CHECK(s < state_.size());
    return state_[s] == ServerState::kUp;
  }
  /// True for up and down servers; false for gone ones.
  bool is_member(ServerId s) const {
    PLS_CHECK(s < state_.size());
    return state_[s] != ServerState::kGone;
  }
  std::size_t up_count() const noexcept { return up_.size(); }

  void fail(ServerId s);
  void recover(ServerId s);
  /// Recovers every down server. Gone servers stay gone.
  void recover_all();

  /// Registers a new member and returns its id (ids are dense and never
  /// reused, so the new id always equals the previous size()).
  ServerId add_server();

  /// Removes `s` from the membership for good. Idempotent transitions are
  /// rejected: the server must currently be a member.
  void mark_gone(ServerId s);

  /// Snapshot restore: overwrites the whole lifecycle state — per-server
  /// states and the change epoch — and rebuilds the cached member and up
  /// lists.
  /// `states` must match size() (ids are never reused, so a restored
  /// cluster has exactly the hosts the saved one had).
  void restore(std::span<const ServerState> states, std::uint64_t epoch);

  /// Monotonically increasing change counter, bumped by every effective
  /// transition (fail, recover, join, leave). Equal epochs guarantee no
  /// lifecycle event happened in between — the early-out for repair scans.
  std::uint64_t epoch() const noexcept { return epoch_; }

  /// Ids of all currently operational servers, ascending. The span is
  /// cached and allocation-free; it is invalidated by the next state change.
  std::span<const ServerId> up() const noexcept { return up_; }
  /// An owning copy of up().
  std::vector<ServerId> up_servers() const;
  /// Ids of all transiently-down servers, ascending (gone excluded).
  std::vector<ServerId> down_servers() const;

  /// The member list: all non-gone ids, ascending. Accessors are O(1) and
  /// allocation-free (the list is cached, rebuilt on membership changes).
  std::size_t member_count() const noexcept { return members_.size(); }
  ServerId member_at(std::size_t rank) const;
  /// The rank of member `s` in the member list. Precondition: is_member(s).
  std::size_t member_index(ServerId s) const;

 private:
  void rebuild_members();
  void rebuild_up();

  std::vector<ServerState> state_;
  std::uint64_t epoch_ = 0;
  std::vector<ServerId> members_;        ///< non-gone ids, ascending
  std::vector<std::size_t> member_rank_;  ///< id -> rank (undefined if gone)
  std::vector<ServerId> up_;             ///< up ids, ascending
};

std::shared_ptr<FailureState> make_failure_state(std::size_t num_servers);

}  // namespace pls::net
