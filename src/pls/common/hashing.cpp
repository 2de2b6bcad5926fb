#include "pls/common/hashing.hpp"

#include "pls/common/check.hpp"
#include "pls/common/rng.hpp"

namespace pls {

HashFamily::HashFamily(std::size_t y, std::size_t num_servers,
                       std::uint64_t seed)
    : num_servers_(num_servers) {
  PLS_CHECK_MSG(y > 0, "Hash family needs at least one function");
  PLS_CHECK_MSG(num_servers > 0, "Hash family needs at least one server");
  std::uint64_t sm = seed;
  seeds_.reserve(y);
  for (std::size_t i = 0; i < y; ++i) seeds_.push_back(splitmix64(sm));
}

HashFamily HashFamily::from_seeds(std::vector<std::uint64_t> seeds,
                                  std::size_t num_servers) {
  PLS_CHECK_MSG(!seeds.empty(), "Hash family needs at least one function");
  PLS_CHECK_MSG(num_servers > 0, "Hash family needs at least one server");
  HashFamily family(1, num_servers, 0);
  family.seeds_ = std::move(seeds);
  return family;
}

ServerId HashFamily::operator()(std::size_t i, Entry v) const noexcept {
  PLS_ASSERT(i < seeds_.size());
  return static_cast<ServerId>(mix_hash(v, seeds_[i]) %
                               static_cast<std::uint64_t>(num_servers_));
}

void HashFamily::targets(Entry v, std::size_t copies, TargetList& out) const {
  for (std::size_t i = 0; i < copies; ++i) out.insert((*this)(i, v));
}

}  // namespace pls
