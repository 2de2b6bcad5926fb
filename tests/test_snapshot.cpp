// Cluster snapshot/restore (docs/PROTOCOLS.md §"Wire format v1"): the
// differential contract. Save a mid-run service, restore it into a twin
// built from the identical config, continue both with the identical op
// script — every observable (lookup answers in order, transport counter
// sets, storage) must be bit-identical, for all six strategy families,
// clean and under lossy links + membership churn, sequentially and on the
// sharded runtime. Plus the golden snapshot_v1.bin byte-compatibility pin
// and the decoder's typed rejection of corrupt/version-skewed snapshots.
//
//   PLS_UPDATE_GOLDEN=1 ./build/tests/test_snapshot   # refresh the golden
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "pls/core/service.hpp"
#include "pls/core/strategy_factory.hpp"
#include "pls/net/repair.hpp"
#include "pls/runtime/sharded_runtime.hpp"
#include "pls/wire/snapshot.hpp"
#include "pls/wire/wire.hpp"

namespace pls::wire {
namespace {

struct Scenario {
  const char* name;
  core::StrategyKind kind;
  std::size_t param;
  bool churn;  ///< lossy link + failures + membership changes
};

constexpr Scenario kScenarios[] = {
    {"full_clean", core::StrategyKind::kFullReplication, 1, false},
    {"fixed_clean", core::StrategyKind::kFixed, 10, false},
    {"randomserver_clean", core::StrategyKind::kRandomServer, 10, false},
    {"round_clean", core::StrategyKind::kRoundRobin, 2, false},
    {"hash_clean", core::StrategyKind::kHash, 2, false},
    {"multiprobe_clean", core::StrategyKind::kMultiProbe, 2, false},
    {"full_churn", core::StrategyKind::kFullReplication, 1, true},
    {"fixed_churn", core::StrategyKind::kFixed, 10, true},
    {"randomserver_churn", core::StrategyKind::kRandomServer, 10, true},
    {"round_churn", core::StrategyKind::kRoundRobin, 2, true},
    {"hash_churn", core::StrategyKind::kHash, 2, true},
    {"multiprobe_churn", core::StrategyKind::kMultiProbe, 2, true},
};

core::ServiceConfig make_config(const Scenario& sc) {
  core::ServiceConfig cfg;
  cfg.num_servers = 8;
  cfg.default_strategy.kind = sc.kind;
  cfg.default_strategy.param = sc.param;
  cfg.expected_keys = 5;
  cfg.seed = 20260810;
  if (sc.churn) {
    cfg.link.drop_probability = 0.15;
    cfg.link.duplicate_probability = 0.10;
    cfg.retry.max_attempts = 4;
  }
  return cfg;
}

std::vector<Key> make_keys() {
  std::vector<Key> keys;
  for (int k = 0; k < 5; ++k) keys.push_back("key-" + std::to_string(k));
  return keys;
}

/// Phase 1 runs BEFORE the snapshot: places every key, churns, and (in the
/// churn variants) exercises failures and elastic membership so the saved
/// state includes a tombstoned host and a mid-lifecycle epoch.
template <typename ServiceLike>
void run_phase1(ServiceLike& svc, const std::vector<Key>& keys, bool churn) {
  std::vector<Entry> entries(30);
  for (std::size_t k = 0; k < keys.size(); ++k) {
    for (std::size_t i = 0; i < entries.size(); ++i) {
      entries[i] = static_cast<Entry>(100 * k + i + 1);
    }
    svc.place(keys[k], entries);
  }
  for (std::size_t u = 0; u < 40; ++u) {
    const Key& key = keys[u % keys.size()];
    svc.add(key, static_cast<Entry>(10'000 + u));
    if (u % 3 == 0) svc.erase(key, static_cast<Entry>(10'000 + u));
  }
  if (churn) {
    svc.fail_server(1);
    svc.fail_server(3);
    for (std::size_t u = 0; u < 10; ++u) {
      svc.add(keys[u % keys.size()], static_cast<Entry>(20'000 + u));
    }
    svc.recover_server(1);
    svc.recover_server(3);
    (void)svc.add_server();
    svc.remove_server(2, net::Loss::kPermanent);
  }
}

/// Phase 2 runs AFTER the snapshot, identically on the original and the
/// restored twin; the returned transcript folds every observable of every
/// op, so any divergence — one entry, one retry, one counter — fails ==.
std::vector<std::uint64_t> run_phase2(core::PartialLookupService& svc,
                                      const std::vector<Key>& keys,
                                      bool churn) {
  std::vector<std::uint64_t> t;
  for (std::size_t u = 0; u < 30; ++u) {
    const Key& key = keys[u % keys.size()];
    svc.add(key, static_cast<Entry>(30'000 + u));
    if (u % 2 == 0) svc.erase(key, static_cast<Entry>(30'000 + u));
    if (churn && u == 10) svc.fail_server(4);
    if (churn && u == 20) svc.recover_server(4);
    const auto result = svc.partial_lookup(keys[(u * 3) % keys.size()], 6);
    t.push_back(result.servers_contacted);
    t.push_back(result.satisfied ? 1 : 0);
    t.push_back(result.attempts);
    t.push_back(result.retries);
    t.insert(t.end(), result.entries.begin(), result.entries.end());
  }
  t.push_back(svc.total_storage());
  return t;
}

class SnapshotDifferential : public ::testing::TestWithParam<Scenario> {};

TEST_P(SnapshotDifferential, RestoredServiceContinuesBitIdentically) {
  const Scenario& sc = GetParam();
  const std::vector<Key> keys = make_keys();

  core::PartialLookupService original(make_config(sc));
  run_phase1(original, keys, sc.churn);
  const std::vector<std::uint8_t> snap = save_service(original);

  core::PartialLookupService restored(make_config(sc));
  const auto err = load_service(restored, snap);
  ASSERT_FALSE(err.has_value()) << *err;

  // The restored twin IS the saved service: same keys, same storage, same
  // counters — and a re-save produces the identical bytes.
  ASSERT_EQ(restored.num_keys(), original.num_keys());
  EXPECT_EQ(restored.total_storage(), original.total_storage());
  EXPECT_EQ(restored.total_transport(), original.total_transport());
  EXPECT_EQ(save_service(restored), snap)
      << "save(load(snap)) must reproduce snap byte-for-byte";

  const auto a = run_phase2(original, keys, sc.churn);
  const auto b = run_phase2(restored, keys, sc.churn);
  EXPECT_EQ(a, b) << "restored run diverged from the uninterrupted run";
  EXPECT_EQ(restored.total_transport(), original.total_transport());
  for (const Key& key : keys) {
    EXPECT_EQ(restored.key_transport(key), original.key_transport(key))
        << key;
  }
}

std::string scenario_name(const ::testing::TestParamInfo<Scenario>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Scenarios, SnapshotDifferential,
                         ::testing::ValuesIn(kScenarios), scenario_name);

// --- sharded runtime ------------------------------------------------------

sim::ShardedRuntimeConfig make_sharded_config(const Scenario& sc,
                                              std::size_t shards) {
  sim::ShardedRuntimeConfig rcfg;
  rcfg.shards = shards;
  rcfg.service = make_config(sc);
  return rcfg;
}

std::vector<std::uint64_t> run_phase2_sharded(sim::ShardedRuntime& rt,
                                              const std::vector<Key>& keys,
                                              bool churn) {
  for (std::size_t u = 0; u < 30; ++u) {
    const Key& key = keys[u % keys.size()];
    rt.add(key, static_cast<Entry>(30'000 + u));
    if (u % 2 == 0) rt.erase(key, static_cast<Entry>(30'000 + u));
    if (churn && u == 10) rt.fail_server(4);
    if (churn && u == 20) rt.recover_server(4);
    rt.lookup(keys[(u * 3) % keys.size()], 6);
  }
  rt.repair_scan(50.0);

  std::vector<std::uint64_t> t;
  const metrics::ShardLookupCounters totals = rt.lookup_totals();
  t.push_back(totals.lookups);
  t.push_back(totals.satisfied);
  t.push_back(totals.servers_contacted);
  t.push_back(totals.entries_returned);
  for (const Key& key : keys) {
    const metrics::ShardLookupCounters kc = rt.key_lookup_totals(key);
    t.push_back(kc.lookups);
    t.push_back(kc.servers_contacted);
    t.push_back(kc.entries_returned);
  }
  t.push_back(rt.total_storage());
  t.push_back(rt.total_repairs_created());
  t.push_back(rt.shards_consistent() ? 1 : 0);
  return t;
}

class ShardedSnapshot
    : public ::testing::TestWithParam<std::tuple<Scenario, std::size_t>> {};

TEST_P(ShardedSnapshot, RestoredRuntimeContinuesBitIdentically) {
  const auto& [sc, shards] = GetParam();
  const std::vector<Key> keys = make_keys();

  sim::ShardedRuntime original(make_sharded_config(sc, shards));
  run_phase1(original, keys, sc.churn);
  original.repair_scan(10.0);
  const std::vector<std::uint8_t> snap = original.save_snapshot();

  sim::ShardedRuntime restored(make_sharded_config(sc, shards));
  const auto err = restored.load_snapshot(snap);
  ASSERT_FALSE(err.has_value()) << *err;

  EXPECT_EQ(restored.num_keys(), original.num_keys());
  EXPECT_EQ(restored.total_storage(), original.total_storage());
  EXPECT_EQ(restored.total_transport(), original.total_transport());

  const auto a = run_phase2_sharded(original, keys, sc.churn);
  const auto b = run_phase2_sharded(restored, keys, sc.churn);
  EXPECT_EQ(a, b) << "restored sharded run diverged";
  EXPECT_EQ(restored.total_transport(), original.total_transport());
  EXPECT_EQ(restored.total_repair_transport(),
            original.total_repair_transport());
}

TEST(ShardedSnapshot, RefusesAShardCountMismatch) {
  const Scenario sc{"round_clean", core::StrategyKind::kRoundRobin, 2, false};
  sim::ShardedRuntime original(make_sharded_config(sc, 8));
  run_phase1(original, make_keys(), false);
  const auto snap = original.save_snapshot();

  sim::ShardedRuntime other(make_sharded_config(sc, 4));
  const auto err = other.load_snapshot(snap);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("shard count"), std::string::npos) << *err;
}

std::string sharded_name(
    const ::testing::TestParamInfo<std::tuple<Scenario, std::size_t>>& info) {
  return std::string(std::get<0>(info.param).name) + "_s" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ShardedSnapshot,
    ::testing::Combine(::testing::ValuesIn(kScenarios),
                       ::testing::Values(std::size_t{1}, std::size_t{8})),
    sharded_name);

// --- standalone strategies ------------------------------------------------

TEST(StrategySnapshot, StandaloneStrategyRestoresBitIdentically) {
  for (const Scenario& sc : kScenarios) {
    core::StrategyConfig cfg;
    cfg.kind = sc.kind;
    cfg.param = sc.param;
    cfg.seed = 77;
    if (sc.churn) {
      cfg.link.drop_probability = 0.15;
      cfg.retry.max_attempts = 4;
    }
    auto original = core::make_strategy(cfg, 6);

    std::vector<Entry> entries(24);
    for (std::size_t i = 0; i < entries.size(); ++i) entries[i] = i + 1;
    original->place(entries);
    for (Entry v = 100; v < 110; ++v) original->add(v);
    original->erase(102);
    if (sc.churn) {
      original->fail_server(2);
      original->add(200);
      original->recover_server(2);
    }
    const std::vector<std::uint8_t> snap = save_strategy(*original);

    auto restored = core::make_strategy(cfg, 6);
    const auto err = load_strategy(*restored, snap);
    ASSERT_FALSE(err.has_value()) << sc.name << ": " << *err;
    EXPECT_EQ(save_strategy(*restored), snap) << sc.name;

    for (int i = 0; i < 10; ++i) {
      original->add(static_cast<Entry>(300 + i));
      restored->add(static_cast<Entry>(300 + i));
      const auto a = original->partial_lookup(5);
      const auto b = restored->partial_lookup(5);
      EXPECT_EQ(a.entries, b.entries) << sc.name << " lookup " << i;
      EXPECT_EQ(a.servers_contacted, b.servers_contacted) << sc.name;
      EXPECT_EQ(a.satisfied, b.satisfied) << sc.name;
    }
    EXPECT_EQ(original->network().stats(), restored->network().stats())
        << sc.name;
  }
}

// --- format-level rejection ----------------------------------------------

core::ServiceConfig golden_config() {
  const Scenario sc{"round_clean", core::StrategyKind::kRoundRobin, 2, false};
  return make_config(sc);
}

std::vector<std::uint8_t> golden_bytes() {
  core::PartialLookupService svc(golden_config());
  run_phase1(svc, make_keys(), false);
  return save_service(svc);
}

TEST(SnapshotFormat, RejectsBadMagic) {
  std::vector<std::uint8_t> snap = golden_bytes();
  snap[0] ^= 0xFF;
  core::PartialLookupService svc(golden_config());
  const auto err = load_service(svc, snap);
  ASSERT_TRUE(err.has_value());
}

TEST(SnapshotFormat, RejectsAFutureVersionWithAClearError) {
  std::vector<std::uint8_t> snap = golden_bytes();
  // Byte 7, right after the 7-byte "PLSSNAP" magic, is the format version.
  ASSERT_EQ(snap[7], kSnapshotVersion);
  snap[7] = kSnapshotVersion + 1;
  core::PartialLookupService svc(golden_config());
  const auto err = load_service(svc, snap);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("version"), std::string::npos) << *err;
  EXPECT_NE(err->find("this build reads version 1"), std::string::npos)
      << *err;
}

TEST(SnapshotFormat, RejectsAFingerprintMismatch) {
  const std::vector<std::uint8_t> snap = golden_bytes();
  core::ServiceConfig other = golden_config();
  other.default_strategy.param = 3;
  core::PartialLookupService svc(other);
  const auto err = load_service(svc, snap);
  ASSERT_TRUE(err.has_value());
}

TEST(SnapshotFormat, RejectsTruncationsWithoutCrashing) {
  const std::vector<std::uint8_t> snap = golden_bytes();
  // Every 13th prefix plus the final few: cheap but dense coverage of the
  // truncation space. Each load must fail cleanly, never crash.
  for (std::size_t len = 0; len < snap.size();
       len += (len + 13 < snap.size() ? std::size_t{13} : std::size_t{1})) {
    core::PartialLookupService svc(golden_config());
    const auto err =
        load_service(svc, std::span(snap.data(), len));
    EXPECT_TRUE(err.has_value()) << "prefix " << len << " loaded";
  }
}

TEST(SnapshotFormat, RejectsTrailingGarbage) {
  std::vector<std::uint8_t> snap = golden_bytes();
  snap.push_back(0x00);
  core::PartialLookupService svc(golden_config());
  const auto err = load_service(svc, snap);
  ASSERT_TRUE(err.has_value());
}

// --- Hash-y family extras ------------------------------------------------

core::ServiceConfig hash_config() {
  core::ServiceConfig cfg;
  cfg.num_servers = 6;
  cfg.default_strategy.kind = core::StrategyKind::kHash;
  cfg.default_strategy.param = 2;
  cfg.seed = 606;
  return cfg;
}

/// A saved 6-host Hash-y service with one key, and the offset of that
/// key's family extras: the family's server count, its seed count, then
/// the seeds.
struct HashSnapshot {
  std::vector<std::uint8_t> bytes;
  std::size_t extras = 0;
};

HashSnapshot hash_snapshot() {
  core::PartialLookupService svc(hash_config());
  std::vector<Entry> entries(12);
  for (std::size_t i = 0; i < entries.size(); ++i) entries[i] = i + 1;
  svc.place("key", entries);
  HashSnapshot snap{save_service(svc), 0};
  // The key's strategy block appears verbatim in the service snapshot; its
  // extras follow the client and repair rng states (4 words each).
  Writer block;
  svc.strategy("key").save_state(block);
  const std::vector<std::uint8_t> state = block.take();
  const auto at = std::search(snap.bytes.begin(), snap.bytes.end(),
                              state.begin(), state.end());
  EXPECT_NE(at, snap.bytes.end());
  snap.extras = static_cast<std::size_t>(at - snap.bytes.begin()) + 64;
  return snap;
}

std::size_t varint_length(const std::vector<std::uint8_t>& bytes,
                          std::size_t at) {
  Reader r(std::span<const std::uint8_t>(bytes).subspan(at));
  (void)r.varint();
  return bytes.size() - at - r.remaining();
}

/// `bytes` with the varint at `at` re-encoded as `value`.
std::vector<std::uint8_t> with_varint(const std::vector<std::uint8_t>& bytes,
                                      std::size_t at, std::uint64_t value) {
  Writer w;
  w.varint(value);
  const std::vector<std::uint8_t> encoded = w.take();
  const auto begin = bytes.begin();
  std::vector<std::uint8_t> out(begin, begin + static_cast<std::ptrdiff_t>(at));
  out.insert(out.end(), encoded.begin(), encoded.end());
  const std::size_t rest = at + varint_length(bytes, at);
  out.insert(out.end(), begin + static_cast<std::ptrdiff_t>(rest), bytes.end());
  return out;
}

std::optional<std::string> load_hash_service(
    const std::vector<std::uint8_t>& bytes) {
  core::PartialLookupService svc(hash_config());
  return load_service(svc, bytes);
}

TEST(SnapshotFormat, HashFamilyExtrasRoundTrip) {
  const HashSnapshot snap = hash_snapshot();
  Reader r(std::span<const std::uint8_t>(snap.bytes).subspan(snap.extras));
  EXPECT_EQ(r.varint(), 6u);  // the family's server count
  EXPECT_EQ(r.varint(), 2u);  // y seeds
  EXPECT_EQ(load_hash_service(snap.bytes), std::nullopt);
  // Re-encoding a field unchanged must still load: the edits below change
  // only the value.
  EXPECT_EQ(load_hash_service(with_varint(snap.bytes, snap.extras, 6)),
            std::nullopt);
}

TEST(SnapshotFormat, RejectsAHashSeedCountTheBytesCannotHold) {
  // A seed count is untrusted: 2^34 seeds would ask for 128 GiB and 2^26
  // for 512 MiB. Each must be refused from the bytes left, before anything
  // is allocated from it.
  const HashSnapshot snap = hash_snapshot();
  const std::size_t count_at =
      snap.extras + varint_length(snap.bytes, snap.extras);
  for (const std::uint64_t count : {std::uint64_t{1} << 34,
                                    std::uint64_t{1} << 26}) {
    const auto err =
        load_hash_service(with_varint(snap.bytes, count_at, count));
    ASSERT_TRUE(err.has_value()) << "seed count " << count << " loaded";
    EXPECT_NE(err->find("Hash family"), std::string::npos) << *err;
    EXPECT_NE(err->find("seed count"), std::string::npos) << *err;
  }
}

TEST(SnapshotFormat, RejectsAHashFamilySizedForAnotherMemberCount) {
  // The family maps entries onto member ranks, so its server count must
  // equal the restored member count; a family over 60 servers on a 6-host
  // cluster would name ranks that do not exist.
  const HashSnapshot snap = hash_snapshot();
  const auto err = load_hash_service(with_varint(snap.bytes, snap.extras, 60));
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("Hash family"), std::string::npos) << *err;
}

// --- the checked-in golden snapshot --------------------------------------

std::string golden_path() {
  return std::string(PLS_GOLDEN_DIR) + "/snapshot_v1.bin";
}

TEST(SnapshotGolden, GoldenFileStaysByteIdenticalAndLoads) {
  const std::vector<std::uint8_t> current = golden_bytes();

  if (std::getenv("PLS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary);
    out.write(reinterpret_cast<const char*>(current.data()),
              static_cast<std::streamsize>(current.size()));
    ASSERT_TRUE(out.good()) << "could not write " << golden_path();
    GTEST_SKIP() << "regenerated " << golden_path();
  }

  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << golden_path()
                         << " missing; regenerate with PLS_UPDATE_GOLDEN=1";
  std::vector<std::uint8_t> golden(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // Byte identity: the format may only change with a version bump (and a
  // regenerated golden acknowledged in review).
  ASSERT_EQ(current, golden)
      << "snapshot bytes drifted from tests/golden/snapshot_v1.bin — either "
         "serialization changed silently (bug) or intentionally (bump "
         "kSnapshotVersion and regenerate with PLS_UPDATE_GOLDEN=1)";

  // A build of today must still load a v1 file saved by any past build.
  core::PartialLookupService restored(golden_config());
  const auto err = load_service(restored, golden);
  ASSERT_FALSE(err.has_value()) << *err;
  EXPECT_EQ(restored.num_keys(), 5u);
  EXPECT_EQ(save_service(restored), golden);
}

}  // namespace
}  // namespace pls::wire
