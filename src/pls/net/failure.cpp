#include "pls/net/failure.hpp"

#include "pls/common/check.hpp"

namespace pls::net {

FailureState::FailureState(std::size_t num_servers)
    : state_(num_servers, ServerState::kUp) {
  PLS_CHECK_MSG(num_servers > 0, "a cluster needs at least one server");
  rebuild_members();
  rebuild_up();
}

void FailureState::rebuild_members() {
  members_.clear();
  members_.reserve(state_.size());
  member_rank_.assign(state_.size(), 0);
  for (std::size_t i = 0; i < state_.size(); ++i) {
    if (state_[i] != ServerState::kGone) {
      member_rank_[i] = members_.size();
      members_.push_back(static_cast<ServerId>(i));
    }
  }
}

void FailureState::rebuild_up() {
  up_.clear();
  up_.reserve(state_.size());
  for (std::size_t i = 0; i < state_.size(); ++i) {
    if (state_[i] == ServerState::kUp) up_.push_back(static_cast<ServerId>(i));
  }
}

ServerState FailureState::state(ServerId s) const {
  PLS_CHECK(s < state_.size());
  return state_[s];
}

void FailureState::fail(ServerId s) {
  PLS_CHECK(s < state_.size());
  if (state_[s] == ServerState::kUp) {
    state_[s] = ServerState::kDown;
    ++epoch_;
    rebuild_up();
  }
}

void FailureState::recover(ServerId s) {
  PLS_CHECK(s < state_.size());
  if (state_[s] == ServerState::kDown) {
    state_[s] = ServerState::kUp;
    ++epoch_;
    rebuild_up();
  }
}

void FailureState::recover_all() {
  for (auto& st : state_) {
    if (st == ServerState::kDown) {
      st = ServerState::kUp;
      ++epoch_;
    }
  }
  rebuild_up();
}

ServerId FailureState::add_server() {
  const auto id = static_cast<ServerId>(state_.size());
  state_.push_back(ServerState::kUp);
  ++epoch_;
  member_rank_.push_back(members_.size());
  members_.push_back(id);
  up_.push_back(id);  // the largest id, so the list stays ascending
  return id;
}

void FailureState::mark_gone(ServerId s) {
  PLS_CHECK(s < state_.size());
  PLS_CHECK_MSG(state_[s] != ServerState::kGone, "server already gone");
  PLS_CHECK_MSG(members_.size() > 1, "cannot remove the last member");
  state_[s] = ServerState::kGone;
  ++epoch_;
  rebuild_members();
  rebuild_up();
}

void FailureState::restore(std::span<const ServerState> states,
                           std::uint64_t epoch) {
  PLS_CHECK_MSG(states.size() == state_.size(),
                "restore must cover exactly the allocated server ids");
  state_.assign(states.begin(), states.end());
  epoch_ = epoch;
  rebuild_members();
  rebuild_up();
}

std::vector<ServerId> FailureState::up_servers() const {
  return std::vector<ServerId>(up_.begin(), up_.end());
}

std::vector<ServerId> FailureState::down_servers() const {
  std::vector<ServerId> out;
  for (std::size_t i = 0; i < state_.size(); ++i) {
    if (state_[i] == ServerState::kDown) {
      out.push_back(static_cast<ServerId>(i));
    }
  }
  return out;
}

ServerId FailureState::member_at(std::size_t rank) const {
  PLS_CHECK(rank < members_.size());
  return members_[rank];
}

std::size_t FailureState::member_index(ServerId s) const {
  PLS_CHECK(s < state_.size());
  PLS_CHECK_MSG(state_[s] != ServerState::kGone,
                "member_index of a gone server");
  return member_rank_[s];
}

std::shared_ptr<FailureState> make_failure_state(std::size_t num_servers) {
  return std::make_shared<FailureState>(num_servers);
}

}  // namespace pls::net
