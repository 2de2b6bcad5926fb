// Behaviour tests for the multi-probe consistent-hash strategy: exact
// placement on the probe-chosen owners, bounded migration on membership
// changes (the family's reason to exist), balance tightening with r, and
// the Hash-style repair rule.
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "pls/core/replica_groups.hpp"
#include "pls/metrics/coverage.hpp"

namespace pls::core {
namespace {

std::vector<Entry> iota_entries(std::size_t h) {
  std::vector<Entry> out(h);
  for (std::size_t i = 0; i < h; ++i) out[i] = i + 1;
  return out;
}

MultiProbeStrategy make(std::size_t n, std::size_t y, std::size_t probes = 16,
                        std::uint64_t seed = 1) {
  return MultiProbeStrategy(StrategyConfig{.kind = StrategyKind::kMultiProbe,
                                           .param = y,
                                           .probes = probes,
                                           .seed = seed},
                            n, net::make_failure_state(n));
}

/// Per-server entry sets of the current placement.
std::vector<std::set<Entry>> snapshot(const Strategy& s) {
  std::vector<std::set<Entry>> out;
  for (const auto& server : s.placement().servers) {
    out.emplace_back(server.begin(), server.end());
  }
  return out;
}

std::size_t copies(const Strategy& s, Entry v) {
  std::size_t count = 0;
  for (const auto& server : s.placement().servers) {
    count += static_cast<std::size_t>(
        std::find(server.begin(), server.end(), v) != server.end());
  }
  return count;
}

/// Copies present in `after` that were not on the same server in `before`
/// (entry-copies that migrated in), and the total copy count of `after`.
std::pair<std::size_t, std::size_t> copies_moved(
    const std::vector<std::set<Entry>>& before,
    const std::vector<std::set<Entry>>& after) {
  std::size_t moved = 0;
  std::size_t total = 0;
  for (std::size_t s = 0; s < after.size(); ++s) {
    total += after[s].size();
    for (Entry v : after[s]) {
      if (s >= before.size() || !before[s].contains(v)) ++moved;
    }
  }
  return {moved, total};
}

TEST(MultiProbe, EntriesLandExactlyOnTheirProbeTargets) {
  auto s = make(10, 3);
  s.place(iota_entries(50));
  const auto p = s.placement();
  const auto& fs = s.network().failures();
  TargetList targets;
  for (Entry v = 1; v <= 50; ++v) {
    targets.clear();
    s.rule().targets(v, s.y(), fs, targets);
    std::set<ServerId> expected(targets.begin(), targets.end());
    std::set<ServerId> actual;
    for (ServerId id = 0; id < 10; ++id) {
      for (Entry e : p.servers[id]) {
        if (e == v) actual.insert(id);
      }
    }
    EXPECT_EQ(actual, expected) << "entry " << v;
  }
}

TEST(MultiProbe, CoverageIsCompleteWheneverYIsPositive) {
  for (std::size_t y : {1u, 2u, 4u}) {
    auto s = make(10, y);
    s.place(iota_entries(100));
    EXPECT_EQ(metrics::max_coverage(s.placement()), 100u);
  }
}

TEST(MultiProbe, AddAndDeleteHitTheSameTargets) {
  auto s = make(8, 2);
  s.place(iota_entries(20));
  const Entry fresh = 999;
  s.add(fresh);
  const auto& fs = s.network().failures();
  TargetList targets;
  s.rule().targets(fresh, s.y(), fs, targets);
  for (ServerId t : targets) {
    EXPECT_TRUE(s.server_state(t).store().contains(fresh));
  }
  EXPECT_EQ(copies(s, fresh), targets.size());
  s.erase(fresh);
  EXPECT_EQ(copies(s, fresh), 0u);
}

TEST(MultiProbe, MoreProbesTightenTheStorageBalance) {
  // r = 1 is classic one-point consistent hashing with its well-known
  // O(log n) peak-to-average skew; more probes pull the peak toward the
  // mean. Compare the two at identical shape and seed.
  auto skew = [](std::size_t probes) {
    auto s = make(10, 1, probes, 7);
    s.place(iota_entries(2000));
    std::size_t peak = 0;
    for (const auto& server : s.placement().servers) {
      peak = std::max(peak, server.size());
    }
    return static_cast<double>(peak) / (2000.0 / 10.0);
  };
  EXPECT_LT(skew(21), skew(1));
}

TEST(MultiProbe, SingleJoinMovesAboutOneNthAndOnlyOntoTheNewcomer) {
  constexpr std::size_t kN = 8;
  auto s = make(kN, 2, 16, 3);
  s.place(iota_entries(400));
  const auto before = snapshot(s);
  std::size_t total_before = 0;
  for (const auto& server : before) total_before += server.size();

  const ServerId newcomer = s.add_server();
  const auto after = snapshot(s);
  const auto [moved, total_after] = copies_moved(before, after);

  // Ring points of survivors are stable, so a join can move copies only
  // onto the new server...
  for (std::size_t id = 0; id < before.size(); ++id) {
    for (Entry v : after[id]) {
      EXPECT_TRUE(before[id].contains(v))
          << "survivor " << id << " gained entry " << v << " on a join";
    }
  }
  // ...and only about 1/(n+1) of all copies (<= 2x the theoretical share).
  EXPECT_EQ(moved, after[newcomer].size());
  EXPECT_LE(moved, 2 * total_before / (kN + 1));
  EXPECT_GT(moved, 0u);  // the newcomer does take a share
  EXPECT_EQ(metrics::max_coverage(s.placement()), 400u);
}

TEST(MultiProbe, SingleGracefulLeaveMovesAboutOneNth) {
  constexpr std::size_t kN = 8;
  auto s = make(kN, 2, 16, 5);
  s.place(iota_entries(400));
  const auto before = snapshot(s);
  std::size_t total_before = 0;
  for (const auto& server : before) total_before += server.size();
  const std::size_t leaving = before[kN - 1].size();

  s.remove_server(kN - 1, net::Loss::kGraceful);
  const auto after = snapshot(s);
  const auto [moved, total_after] = copies_moved(before, after);

  // Only the leaver's copies re-home (plus dedup unwinding, bounded by the
  // same share); nothing else shuffles.
  EXPECT_LE(moved, 2 * total_before / kN);
  EXPECT_GE(moved, leaving > 0 ? 1u : 0u);
  EXPECT_TRUE(after[kN - 1].empty());
  EXPECT_EQ(metrics::max_coverage(s.placement()), 400u);
}

TEST(MultiProbe, RepairRestoresWipedCopiesAndEnforcesTheTwoCopyFloor) {
  auto s = make(6, 2, 16, 9);
  s.place(iota_entries(60));

  // An entry whose two probe groups dedup onto the same server has its
  // sole copies there; wiping that server is real loss repair cannot undo.
  // Repair's contract covers the rest: entries with a surviving copy.
  std::vector<Entry> safe;
  for (Entry v = 1; v <= 60; ++v) {
    const bool on_victim = s.server_state(2).store().contains(v);
    if (copies(s, v) > (on_victim ? 1u : 0u)) safe.push_back(v);
  }
  ASSERT_GT(safe.size(), 40u);  // dedup collisions are the rare case

  s.wipe_server(2);
  const auto out = s.repair_once();
  EXPECT_EQ(out.deficit_after, 0u);
  // Every restorable entry is back on its probe targets with >= 2 copies.
  const auto& fs = s.network().failures();
  TargetList targets;
  for (Entry v : safe) {
    targets.clear();
    s.rule().targets(v, s.y(), fs, targets);
    for (ServerId t : targets) {
      EXPECT_TRUE(s.server_state(t).store().contains(v)) << "entry " << v;
    }
    EXPECT_GE(copies(s, v), 2u) << "entry " << v;
  }
}

TEST(MultiProbe, LookupMergesAcrossServers) {
  auto s = make(10, 2);
  s.place(iota_entries(100));
  const auto r = s.partial_lookup(35);
  EXPECT_TRUE(r.satisfied);
  std::set<Entry> unique(r.entries.begin(), r.entries.end());
  EXPECT_EQ(unique.size(), r.entries.size());
}

TEST(MultiProbe, OwnersMatchThePinnedDigest) {
  // FNV-1a over every entry's target list (count, then ids) for v = 1..3000
  // across cluster sizes, y and r, before and after a graceful leave of
  // server 1 (which makes ranks differ from ids). n = 70 exceeds the inline
  // ring-point buffer. The digest was taken from the owner rule that
  // rehashed every ring point per probe; any change to which member owns a
  // replica group changes it.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](std::uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ ((x >> (8 * byte)) & 0xffu)) * 0x100000001b3ULL;
    }
  };
  TargetList targets;
  for (const std::size_t n : {1u, 3u, 8u, 10u, 70u}) {
    for (const std::size_t y : {1u, 2u, 3u}) {
      for (const std::size_t r : {1u, 16u, 21u}) {
        auto s = make(n, y, r);
        for (const bool after_leave : {false, true}) {
          if (after_leave) {
            if (n == 1) break;  // the only member cannot leave
            s.remove_server(1, net::Loss::kGraceful);
          }
          const auto& fs = s.network().failures();
          for (Entry v = 1; v <= 3000; ++v) {
            targets.clear();
            s.rule().targets(v, y, fs, targets);
            fold(targets.size());
            for (const ServerId id : targets) fold(id);
          }
        }
      }
    }
  }
  EXPECT_EQ(h, 0x312e0bb0666decc1ULL);
}

TEST(MultiProbe, OwnerIsTheFirstTargetAndAgreesPastTheInlineBuffer) {
  // owner() and targets() share one rule; group 0's owner always leads the
  // target list, on small clusters and on ones too big for the inline
  // ring-point buffer.
  for (const std::size_t n : {5u, 65u, 70u}) {
    auto s = make(n, 3, 4);
    const auto& fs = s.network().failures();
    TargetList targets;
    for (Entry v = 1; v <= 200; ++v) {
      targets.clear();
      s.rule().targets(v, 3, fs, targets);
      ASSERT_GE(targets.size(), 1u);
      EXPECT_EQ(*targets.begin(), s.rule().owner(v, 0, fs));
      EXPECT_TRUE(targets.contains(s.rule().owner(v, 2, fs)));
    }
  }
}

TEST(MultiProbe, PlacementIsDeterministicPerSeedAcrossChurn) {
  auto run = [](std::uint64_t seed) {
    auto s = make(8, 2, 16, seed);
    s.place(iota_entries(100));
    s.add_server();
    s.remove_server(3, net::Loss::kGraceful);
    return s.placement().servers;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

}  // namespace
}  // namespace pls::core
