// Seeded 64-bit hash family used by the Hash-y strategy.
//
// The paper assumes y independent uniform hash functions f_1..f_y mapping
// entries to servers. We instantiate them from one avalanche mixer
// parameterised by per-function seeds; tests check uniformity and pairwise
// near-independence empirically.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "pls/common/types.hpp"

namespace pls {

/// Stateless mixing hash of a 64-bit value under a 64-bit seed
/// (murmur-style finalizer over value ^ seed expansions). Inline: it sits
/// on the per-probe path of FlatMap and the per-entry path of Hash-y.
inline std::uint64_t mix_hash(std::uint64_t value,
                              std::uint64_t seed) noexcept {
  std::uint64_t x = value + 0x9e3779b97f4a7c15ULL + seed;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= seed * 0xda942042e4dd58b5ULL;
  x = (x ^ (x >> 31)) * 0x2545f4914f6cdd1dULL;
  return x ^ (x >> 28);
}

/// FNV-1a over a key's content. This is the first half of the service's
/// seed-derivation contract: every per-key random stream is seeded from
/// mix_hash(key_content_hash(key), service_seed), a function of the key's
/// *content* only — never of its dense KeyId, intern order, or which
/// shard/service instance hosts it. That content-independence is what
/// makes the sharded runtime's per-key results bit-identical to the
/// sequential oracle for any shard count.
inline std::uint64_t key_content_hash(const Key& key) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : key) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

/// Distinct seed for shard *routing*, so the shard index is decorrelated
/// from every stream seeded off key_content_hash directly.
inline constexpr std::uint64_t kShardRouteSeed = 0x5ca1ab1e0ddba11ULL;

/// The worker shard that owns `key` under `shards` shards (a power of
/// two): shard = mix_hash(content_hash(key)) & (S-1). Pure content
/// routing — stable across runs, processes, and shard counts dividing
/// each other.
inline std::size_t shard_of_key(const Key& key, std::size_t shards) noexcept {
  return static_cast<std::size_t>(
      mix_hash(key_content_hash(key), kShardRouteSeed) & (shards - 1));
}

/// The distinct servers (or member ranks) a placement rule maps one entry
/// to, in the order the rule chose them. The first kInline live in the
/// object, so an update's fan-out list on the stack costs no allocation at
/// realistic replica counts; longer lists move to the heap.
class TargetList {
 public:
  /// Appends `s` unless it is already listed (colliding replica choices
  /// deduplicate); returns true when appended.
  bool insert(ServerId s) {
    if (contains(s)) return false;
    if (size_ < kInline) {
      inline_[size_] = s;
    } else {
      if (heap_.empty()) heap_.assign(inline_.begin(), inline_.end());
      heap_.push_back(s);
    }
    ++size_;
    return true;
  }

  bool contains(ServerId s) const noexcept {
    const auto all = view();
    return std::find(all.begin(), all.end(), s) != all.end();
  }
  std::size_t size() const noexcept { return size_; }
  void clear() noexcept {
    size_ = 0;
    heap_.clear();
  }

  auto begin() const noexcept { return view().begin(); }
  auto end() const noexcept { return view().end(); }

 private:
  std::span<const ServerId> view() const noexcept {
    if (size_ <= kInline) return {inline_.data(), size_};
    return heap_;
  }

  static constexpr std::size_t kInline = 8;
  std::array<ServerId, kInline> inline_{};
  std::vector<ServerId> heap_;
  std::size_t size_ = 0;
};

/// A family of y hash functions onto [0, num_servers).
class HashFamily {
 public:
  /// Creates y functions derived deterministically from `seed`.
  HashFamily(std::size_t y, std::size_t num_servers, std::uint64_t seed);

  /// Restores a family from its raw per-function seeds (the snapshot
  /// path). Equivalent to the family whose derivation produced `seeds`.
  static HashFamily from_seeds(std::vector<std::uint64_t> seeds,
                               std::size_t num_servers);

  std::size_t size() const noexcept { return seeds_.size(); }
  std::size_t num_servers() const noexcept { return num_servers_; }
  /// The per-function seeds, for checkpointing (see from_seeds).
  const std::vector<std::uint64_t>& seeds() const noexcept { return seeds_; }

  /// Server chosen by function `i` for entry `v`.
  ServerId operator()(std::size_t i, Entry v) const noexcept;

  /// The *distinct* servers assigned to `v` by the first `copies`
  /// functions, in function order: where Hash-y stores v, collisions
  /// between functions deduplicated (§3.5). Appends into `out`.
  void targets(Entry v, std::size_t copies, TargetList& out) const;

 private:
  std::size_t num_servers_;
  std::vector<std::uint64_t> seeds_;
};

}  // namespace pls
