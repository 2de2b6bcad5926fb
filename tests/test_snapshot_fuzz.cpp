// Snapshot loader fuzz (tier-2): every single-byte corruption of the golden
// snapshot — each byte of tests/golden/snapshot_v1.bin XOR 0x01 and XOR
// 0xFF — must load or be rejected, and do so within a per-load time limit.
// A snapshot comes from outside the trust boundary, so no count read from
// it may drive a loop or an allocation past the bytes that back it. Runs
// under ASan/UBSan/TSan via scripts/run_sanitized_tests.sh like every
// tier-2 test.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

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

TEST(SnapshotFuzz, EverySingleByteFlipLoadsOrFailsInBoundedTime) {
  // Generous for a 5 KB snapshot under a sanitizer; a loader that loops on
  // a corrupt count runs for minutes.
  constexpr auto kLimit = std::chrono::seconds(2);
  const std::vector<std::uint8_t> golden = golden_bytes();
  ASSERT_FALSE(golden.empty()) << "tests/golden/snapshot_v1.bin missing";
  {
    core::PartialLookupService svc(golden_config());
    ASSERT_EQ(load_service(svc, golden), std::nullopt);
  }

  std::size_t rejected = 0;
  for (std::size_t i = 0; i < golden.size(); ++i) {
    for (const std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0xFF}}) {
      std::vector<std::uint8_t> mutant = golden;
      mutant[i] ^= mask;
      // The load runs on its own thread so that a hang is reported here,
      // naming the byte, instead of stalling the suite.
      auto load = std::async(std::launch::async, [&mutant] {
        core::PartialLookupService svc(golden_config());
        return load_service(svc, mutant).has_value();
      });
      if (load.wait_for(kLimit) != std::future_status::ready) {
        std::cerr << "load of snapshot_v1.bin with byte " << i << " ^ 0x"
                  << std::hex << int{mask} << " ran past the time limit\n";
        std::abort();  // the hung load cannot be joined
      }
      if (load.get()) ++rejected;
    }
  }
  // Many flips only change a stored value and load fine, but no flip of the
  // seven magic bytes may.
  EXPECT_GE(rejected, 14u);
}

}  // namespace
}  // namespace pls::wire
