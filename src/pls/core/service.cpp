#include "pls/core/service.hpp"

#include <utility>

#include "pls/common/check.hpp"
#include "pls/common/hashing.hpp"

namespace pls::core {

PartialLookupService::PartialLookupService(ServiceConfig config)
    : config_(std::move(config)),
      failures_(net::make_failure_state(config_.num_servers)),
      cluster_(
          std::make_unique<net::Cluster>(config_.num_servers, failures_)) {
  PLS_CHECK_MSG(config_.num_servers > 0, "service needs at least one server");
  // Cluster-wide transport reliability; each key's link stream is seeded
  // at intern time (Cluster::add_key), from the key-derived seed.
  cluster_->network().set_link_model(config_.link);
  cluster_->network().set_retry_policy(config_.retry);
  if (config_.expected_keys > 0) {
    ids_.reserve(config_.expected_keys);
    strategies_.reserve(config_.expected_keys);
    cluster_->reserve_keys(config_.expected_keys);
  }
}

PartialLookupService::~PartialLookupService() {
  while (!strategies_.empty()) strategies_.pop_back();
}

std::optional<KeyId> PartialLookupService::find_id(const Key& key) const {
  const auto it = ids_.find(key);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

KeyId PartialLookupService::intern(const Key& key) {
  const auto it = ids_.find(key);
  if (it != ids_.end()) return it->second;

  StrategyConfig cfg = config_.default_strategy;
  if (config_.strategy_policy) {
    if (auto override_cfg = config_.strategy_policy(key)) cfg = *override_cfg;
  }
  // Transport reliability is a property of the shared cluster, not of one
  // key's placement scheme.
  cfg.link = config_.link;
  cfg.retry = config_.retry;
  // Give each key an independent random stream derived from the service
  // seed and the key's content, so runs replay deterministically regardless
  // of key-creation order — and of which shard's service instance the key
  // lands on under sim::ShardedRuntime.
  cfg.seed = mix_hash(key_content_hash(key), config_.seed);

  auto strategy = make_strategy(cfg, *cluster_);
  const KeyId id = strategy->key();
  PLS_ASSERT(id == strategies_.size());
  strategies_.push_back(std::move(strategy));
  ids_.emplace(key, id);
  return id;
}

void PartialLookupService::place(const Key& key,
                                 std::span<const Entry> entries) {
  strategies_[intern(key)]->place(entries);
}

void PartialLookupService::add(const Key& key, Entry v) {
  strategies_[intern(key)]->add(v);
}

void PartialLookupService::erase(const Key& key, Entry v) {
  const auto id = find_id(key);
  if (!id.has_value()) return;  // deleting from an unknown key is a no-op
  strategies_[*id]->erase(v);
}

LookupResult PartialLookupService::partial_lookup(const Key& key,
                                                  std::size_t t) {
  const auto id = find_id(key);
  if (!id.has_value()) return LookupResult{};  // §2: unknown key -> empty
  return strategies_[*id]->partial_lookup(t);
}

bool PartialLookupService::contains_key(const Key& key) const {
  return ids_.contains(key);
}

std::optional<KeyId> PartialLookupService::key_id(const Key& key) const {
  return find_id(key);
}

std::vector<Key> PartialLookupService::key_names() const {
  std::vector<Key> names(strategies_.size());
  for (const auto& [name, id] : ids_) names[id] = name;
  return names;
}

Strategy& PartialLookupService::strategy(const Key& key) {
  const auto id = find_id(key);
  PLS_CHECK_MSG(id.has_value(), "unknown key: " + key);
  return *strategies_[*id];
}

const Strategy& PartialLookupService::strategy(const Key& key) const {
  const auto id = find_id(key);
  PLS_CHECK_MSG(id.has_value(), "unknown key: " + key);
  return *strategies_[*id];
}

ServerId PartialLookupService::add_server() { return cluster_->add_host(); }

void PartialLookupService::remove_server(ServerId s, net::Loss loss) {
  cluster_->remove_host(s, loss);
}

const net::TransportStats& PartialLookupService::key_transport(
    const Key& key) const {
  const auto id = find_id(key);
  PLS_CHECK_MSG(id.has_value(), "unknown key: " + key);
  return cluster_->network().key_stats(*id);
}

std::size_t PartialLookupService::total_storage() const {
  std::size_t total = 0;
  for (const auto& strategy : strategies_) total += strategy->storage_cost();
  return total;
}

}  // namespace pls::core
