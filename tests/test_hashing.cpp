// Unit tests for the Hash-y hash family.
#include <array>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "pls/common/hashing.hpp"

namespace pls {
namespace {

TEST(MixHash, DeterministicPerSeed) {
  EXPECT_EQ(mix_hash(42, 7), mix_hash(42, 7));
  EXPECT_NE(mix_hash(42, 7), mix_hash(42, 8));
  EXPECT_NE(mix_hash(42, 7), mix_hash(43, 7));
}

TEST(MixHash, AvalanchesOnSingleBitFlips) {
  // Flipping one input bit should flip roughly half of the output bits.
  int total_flips = 0;
  constexpr int kBits = 64;
  for (int bit = 0; bit < kBits; ++bit) {
    const std::uint64_t a = mix_hash(0x123456789abcdefULL, 99);
    const std::uint64_t b =
        mix_hash(0x123456789abcdefULL ^ (1ULL << bit), 99);
    total_flips += __builtin_popcountll(a ^ b);
  }
  const double avg = static_cast<double>(total_flips) / kBits;
  EXPECT_NEAR(avg, 32.0, 4.0);
}

TEST(HashFamily, FunctionsAreDeterministic) {
  HashFamily f(3, 10, 1234);
  HashFamily g(3, 10, 1234);
  for (Entry v = 0; v < 100; ++v) {
    for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(f(i, v), g(i, v));
  }
}

TEST(HashFamily, FunctionsMapIntoServerRange) {
  HashFamily f(5, 7, 55);
  for (Entry v = 0; v < 1000; ++v) {
    for (std::size_t i = 0; i < 5; ++i) EXPECT_LT(f(i, v), 7u);
  }
}

TEST(HashFamily, DifferentSeedsGiveDifferentFamilies) {
  HashFamily f(2, 10, 1);
  HashFamily g(2, 10, 2);
  int differences = 0;
  for (Entry v = 0; v < 200; ++v) {
    differences += (f(0, v) != g(0, v));
  }
  EXPECT_GT(differences, 150);
}

TEST(HashFamily, MemberFunctionsDiffer) {
  HashFamily f(2, 10, 77);
  int differences = 0;
  for (Entry v = 0; v < 200; ++v) differences += (f(0, v) != f(1, v));
  EXPECT_GT(differences, 150);  // ~90% expected for independent functions
}

/// The distinct servers the functions assign to `v`, in function order:
/// where Hash-y stores v, collisions deduplicated (§3.5).
TargetList all_targets(const HashFamily& f, Entry v) {
  TargetList out;
  for (std::size_t i = 0; i < f.size(); ++i) out.insert(f(i, v));
  return out;
}

TEST(HashFamily, TargetsDeduplicateCollisions) {
  HashFamily f(4, 3, 42);  // 4 functions on 3 servers force collisions
  for (Entry v = 0; v < 200; ++v) {
    const auto targets = all_targets(f, v);
    std::set<ServerId> unique(targets.begin(), targets.end());
    EXPECT_EQ(unique.size(), targets.size());
    EXPECT_LE(targets.size(), 3u);
    EXPECT_GE(targets.size(), 1u);
  }
}

TEST(HashFamily, SingleFunctionUniformOverServers) {
  constexpr std::size_t kServers = 10;
  HashFamily f(1, kServers, 4242);
  std::array<int, kServers> counts{};
  constexpr int kEntries = 100000;
  for (Entry v = 0; v < kEntries; ++v) ++counts[f(0, v)];
  for (auto c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kEntries, 0.1, 0.01);
  }
}

TEST(HashFamily, ExpectedDistinctTargetsMatchesCollisionModel) {
  // E[|targets|] = n * (1 - (1-1/n)^y).
  constexpr std::size_t kServers = 10;
  constexpr std::size_t kY = 3;
  HashFamily f(kY, kServers, 7);
  double total = 0.0;
  constexpr int kEntries = 50000;
  for (Entry v = 0; v < kEntries; ++v) {
    total += static_cast<double>(all_targets(f, v).size());
  }
  const double expected = kServers * (1.0 - std::pow(0.9, kY));
  EXPECT_NEAR(total / kEntries, expected, 0.02);
}

TEST(TargetList, KeepsFirstOccurrenceOrderPastTheInlineCapacity) {
  // 20 distinct ids, each offered twice: the list keeps one copy of each in
  // first-offer order, inline and after it moves to the heap alike.
  TargetList list;
  std::vector<ServerId> expected;
  for (ServerId i = 0; i < 20; ++i) {
    const ServerId id = (i * 7) % 20;
    EXPECT_TRUE(list.insert(id));
    EXPECT_FALSE(list.insert(id));
    expected.push_back(id);
  }
  EXPECT_EQ(list.size(), 20u);
  EXPECT_EQ(std::vector<ServerId>(list.begin(), list.end()), expected);
  EXPECT_FALSE(list.contains(20));
  list.clear();
  EXPECT_EQ(list.size(), 0u);
  EXPECT_TRUE(list.insert(3));
  EXPECT_EQ(std::vector<ServerId>(list.begin(), list.end()),
            std::vector<ServerId>{3});
}

TEST(HashFamily, RejectsDegenerateParameters) {
  EXPECT_THROW(HashFamily(0, 10, 1), std::logic_error);
  EXPECT_THROW(HashFamily(2, 0, 1), std::logic_error);
}

}  // namespace
}  // namespace pls
