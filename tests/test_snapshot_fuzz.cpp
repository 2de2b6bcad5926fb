// Snapshot loader fuzz (tier-2): every single-byte corruption of the golden
// snapshot — each byte of tests/golden/snapshot_v1.bin XOR 0x01 and XOR
// 0xFF — and a seeded series of splices (a window of 1-64 bytes inserted,
// deleted or overwritten) must load or be rejected, and do so within a
// per-load time limit. The golden holds Round-Robin keys only, so the same
// byte flips also run over a Hash-y and MultiProbe service snapshot built
// here. A snapshot comes from outside the trust boundary, so no count read
// from it may drive a loop or an allocation past the bytes that back it.
// Runs under ASan/UBSan/TSan via scripts/run_sanitized_tests.sh like every
// tier-2 test.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "pls/common/rng.hpp"
#include "pls/core/service.hpp"
#include "pls/wire/snapshot.hpp"

namespace pls::wire {
namespace {

/// The configuration snapshot_v1.bin was saved under (test_snapshot.cpp's
/// golden scenario).
core::ServiceConfig golden_config() {
  core::ServiceConfig cfg;
  cfg.num_servers = 8;
  cfg.default_strategy.kind = core::StrategyKind::kRoundRobin;
  cfg.default_strategy.param = 2;
  cfg.expected_keys = 5;
  cfg.seed = 20260810;
  return cfg;
}

std::vector<std::uint8_t> golden_bytes() {
  std::ifstream in(std::string(PLS_GOLDEN_DIR) + "/snapshot_v1.bin",
                   std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Six hosts, alternately Hash-2 and MultiProbe-2 keys.
core::ServiceConfig replica_group_config() {
  core::ServiceConfig cfg;
  cfg.num_servers = 6;
  cfg.default_strategy.kind = core::StrategyKind::kHash;
  cfg.default_strategy.param = 2;
  cfg.strategy_policy =
      [](const Key& key) -> std::optional<core::StrategyConfig> {
    if (key.back() % 2 == 0) return std::nullopt;
    core::StrategyConfig mp;
    mp.kind = core::StrategyKind::kMultiProbe;
    mp.param = 2;
    mp.probes = 5;
    return mp;
  };
  cfg.seed = 2718;
  return cfg;
}

/// A replica-group service saved after a join and a permanent leave, with
/// one key first touched after the leave.
std::vector<std::uint8_t> replica_group_bytes() {
  core::PartialLookupService svc(replica_group_config());
  std::vector<Entry> entries(12);
  for (const Key key : {"rg-a", "rg-b", "rg-c", "rg-d"}) {
    for (std::size_t i = 0; i < entries.size(); ++i) {
      entries[i] = 100 * static_cast<Entry>(key.back()) + i;
    }
    svc.place(key, entries);
  }
  (void)svc.add_server();
  svc.remove_server(2, net::Loss::kPermanent);
  svc.add("rg-a", 1);
  svc.erase("rg-b", 100 * 'b' + 3);
  svc.place("rg-e", entries);
  return save_service(svc);
}

/// Loads `mutant` into a fresh service built from `config` and returns
/// true when the loader rejects it. The load runs on its own thread so
/// that a hang is reported here, naming the mutation, instead of stalling
/// the suite.
bool rejected_in_bounded_time(const core::ServiceConfig& config,
                              const std::vector<std::uint8_t>& mutant,
                              const std::string& mutation) {
  // Generous for a 5 KB snapshot under a sanitizer; a loader that loops on
  // a corrupt count runs for minutes.
  constexpr auto kLimit = std::chrono::seconds(2);
  auto load = std::async(std::launch::async, [&config, &mutant] {
    core::PartialLookupService svc(config);
    return load_service(svc, mutant).has_value();
  });
  if (load.wait_for(kLimit) != std::future_status::ready) {
    std::cerr << "load of " << mutation << " ran past the time limit\n";
    std::abort();  // the hung load cannot be joined
  }
  return load.get();
}

/// Loads every single-byte flip of `snapshot` (each byte XOR 0x01 and XOR
/// 0xFF) and returns how many were rejected.
std::size_t flips_rejected(const core::ServiceConfig& config,
                           const std::vector<std::uint8_t>& snapshot,
                           const std::string& name) {
  {
    core::PartialLookupService svc(config);
    EXPECT_EQ(load_service(svc, snapshot), std::nullopt) << name;
  }
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    for (const std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0xFF}}) {
      std::vector<std::uint8_t> mutant = snapshot;
      mutant[i] ^= mask;
      if (rejected_in_bounded_time(config, mutant,
                                   name + " with byte " + std::to_string(i) +
                                       " ^ " + std::to_string(mask))) {
        ++rejected;
      }
    }
  }
  return rejected;
}

TEST(SnapshotFuzz, EverySingleByteFlipLoadsOrFailsInBoundedTime) {
  const std::vector<std::uint8_t> golden = golden_bytes();
  ASSERT_FALSE(golden.empty()) << "tests/golden/snapshot_v1.bin missing";
  // Many flips only change a stored value and load fine, but no flip of the
  // seven magic bytes may.
  EXPECT_GE(flips_rejected(golden_config(), golden, "snapshot_v1.bin"), 14u);
}

TEST(SnapshotFuzz, EveryReplicaGroupByteFlipLoadsOrFailsInBoundedTime) {
  EXPECT_GE(flips_rejected(replica_group_config(), replica_group_bytes(),
                           "the Hash-y and MultiProbe snapshot"),
            14u);
}

TEST(SnapshotFuzz, SeededSplicesLoadOrFailInBoundedTime) {
  const std::vector<std::uint8_t> golden = golden_bytes();
  ASSERT_FALSE(golden.empty()) << "tests/golden/snapshot_v1.bin missing";
  constexpr std::uint64_t kSeed = 0x5b11ce;
  constexpr std::size_t kSplices = 3000;
  Rng rng(kSeed);
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kSplices; ++i) {
    std::vector<std::uint8_t> mutant = golden;
    const std::size_t window = 1 + rng.uniform(64);
    const std::size_t at = rng.uniform(golden.size());
    const std::size_t end = std::min(at + window, golden.size());
    const auto op = rng.uniform(3);
    const auto pos = mutant.begin() + static_cast<std::ptrdiff_t>(at);
    if (op == 0) {  // insert `window` random bytes before `at`
      std::vector<std::uint8_t> bytes(window);
      for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform(256));
      mutant.insert(pos, bytes.begin(), bytes.end());
    } else if (op == 1) {  // delete [at, at + window)
      mutant.erase(pos, mutant.begin() + static_cast<std::ptrdiff_t>(end));
    } else {  // overwrite [at, at + window) with random bytes
      for (std::size_t j = at; j < end; ++j) {
        mutant[j] = static_cast<std::uint8_t>(rng.uniform(256));
      }
    }
    if (rejected_in_bounded_time(golden_config(), mutant,
                                 "snapshot_v1.bin with splice " +
                                     std::to_string(i) + " of seed " +
                                     std::to_string(kSeed))) {
      ++rejected;
    }
  }
  // Snapshot v1 carries no checksum, so a splice that keeps every field
  // parseable loads as a different cluster; most do not.
  EXPECT_GT(rejected, kSplices * 9 / 10);
}

}  // namespace
}  // namespace pls::wire
