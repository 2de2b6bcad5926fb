// plsim flag validation: nonsensical combinations and out-of-range values
// must be rejected with a clear message, sensible ones accepted.
#include <gtest/gtest.h>

#include <limits>

#include "pls/workload/workload_options.hpp"

namespace pls::workload {
namespace {

constexpr std::size_t kKeys = 16;

SaturationCliOptions saturation(double load) {
  SaturationCliOptions o;
  o.offered_load = load;
  o.offered_load_set = true;
  return o;
}

TEST(PlsimOptions, DefaultsAreValid) {
  EXPECT_EQ(validate_saturation_options({}, kKeys), std::nullopt);
  EXPECT_EQ(validate_saturation_options({}, 0), std::nullopt);
}

TEST(PlsimOptions, OfferedLoadMustBeAFiniteNonNegativeRate) {
  EXPECT_TRUE(validate_saturation_options(saturation(-1.0), kKeys));
  EXPECT_TRUE(validate_saturation_options(
      saturation(std::numeric_limits<double>::infinity()), kKeys));
  EXPECT_TRUE(validate_saturation_options(
      saturation(std::numeric_limits<double>::quiet_NaN()), kKeys));
  EXPECT_EQ(validate_saturation_options(saturation(0.0), kKeys),
            std::nullopt);
  EXPECT_EQ(validate_saturation_options(saturation(25.0), kKeys),
            std::nullopt);
}

TEST(PlsimOptions, SaturationFlagsRequireSaturationMode) {
  // Each refinement flag alone, without --offered-load > 0, is an error.
  {
    SaturationCliOptions o;
    o.workload = "zipfian";
    const auto err = validate_saturation_options(o, kKeys);
    ASSERT_TRUE(err);
    EXPECT_NE(err->find("--offered-load"), std::string::npos);
  }
  {
    SaturationCliOptions o;
    o.theta = 0.99;
    EXPECT_TRUE(validate_saturation_options(o, kKeys));
  }
  {
    SaturationCliOptions o;
    o.flash_crowd = true;
    EXPECT_TRUE(validate_saturation_options(o, kKeys));
  }
  {
    SaturationCliOptions o;
    o.admit = 2.0;
    EXPECT_TRUE(validate_saturation_options(o, kKeys));
  }
  {
    SaturationCliOptions o;
    o.coalesce = true;
    EXPECT_TRUE(validate_saturation_options(o, kKeys));
  }
  {
    SaturationCliOptions o;
    o.read_fraction = 0.5;
    EXPECT_TRUE(validate_saturation_options(o, kKeys));
  }
  {
    SaturationCliOptions o;
    o.deadline = 1.0;
    EXPECT_TRUE(validate_saturation_options(o, kKeys));
  }
}

TEST(PlsimOptions, SaturationModeNeedsKeys) {
  EXPECT_TRUE(validate_saturation_options(saturation(10.0), 0));
  EXPECT_EQ(validate_saturation_options(saturation(10.0), 1), std::nullopt);
}

TEST(PlsimOptions, WorkloadNameIsChecked) {
  auto o = saturation(10.0);
  o.workload = "ycsb";
  const auto err = validate_saturation_options(o, kKeys);
  ASSERT_TRUE(err);
  EXPECT_NE(err->find("ycsb"), std::string::npos);
  o.workload = "uniform";
  EXPECT_EQ(validate_saturation_options(o, kKeys), std::nullopt);
  o.workload = "zipfian";
  EXPECT_EQ(validate_saturation_options(o, kKeys), std::nullopt);
}

TEST(PlsimOptions, ThetaNeedsZipfianAndRange) {
  auto o = saturation(10.0);
  o.workload = "uniform";
  o.theta = 0.99;
  EXPECT_TRUE(validate_saturation_options(o, kKeys));

  o.workload = "zipfian";
  EXPECT_EQ(validate_saturation_options(o, kKeys), std::nullopt);
  o.theta = -0.1;
  EXPECT_TRUE(validate_saturation_options(o, kKeys));
  o.theta = 17.0;
  EXPECT_TRUE(validate_saturation_options(o, kKeys));
  o.theta = 0.0;
  EXPECT_EQ(validate_saturation_options(o, kKeys), std::nullopt);

  // --workload defaults to zipfian, so --theta alone is fine.
  auto bare = saturation(10.0);
  bare.theta = 1.2;
  EXPECT_EQ(validate_saturation_options(bare, kKeys), std::nullopt);
}

TEST(PlsimOptions, FlashCrowdNeedsZipfian) {
  auto o = saturation(10.0);
  o.flash_crowd = true;
  EXPECT_EQ(validate_saturation_options(o, kKeys), std::nullopt);
  o.workload = "uniform";
  const auto err = validate_saturation_options(o, kKeys);
  ASSERT_TRUE(err);
  EXPECT_NE(err->find("--flash-crowd"), std::string::npos);
}

TEST(PlsimOptions, AdmitBounds) {
  auto o = saturation(10.0);
  o.admit = -0.5;
  EXPECT_TRUE(validate_saturation_options(o, kKeys));
  o.admit = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(validate_saturation_options(o, kKeys));
  o.admit = 0.0;  // 0 = admission disabled, still a valid value
  EXPECT_EQ(validate_saturation_options(o, kKeys), std::nullopt);
  o.admit = 4.0;
  EXPECT_EQ(validate_saturation_options(o, kKeys), std::nullopt);
}

TEST(PlsimOptions, ReadFractionAndDeadlineRanges) {
  auto o = saturation(10.0);
  o.read_fraction = -0.01;
  EXPECT_TRUE(validate_saturation_options(o, kKeys));
  o.read_fraction = 1.01;
  EXPECT_TRUE(validate_saturation_options(o, kKeys));
  o.read_fraction = 1.0;
  EXPECT_EQ(validate_saturation_options(o, kKeys), std::nullopt);

  o.deadline = -1.0;
  EXPECT_TRUE(validate_saturation_options(o, kKeys));
  o.deadline = 0.0;
  EXPECT_EQ(validate_saturation_options(o, kKeys), std::nullopt);
}

TEST(PlsimShardOptions, UnsetFlagIsAlwaysValid) {
  EXPECT_EQ(validate_shard_options({}, kKeys), std::nullopt);
  EXPECT_EQ(validate_shard_options({}, 0), std::nullopt);
}

TEST(PlsimShardOptions, AcceptsPowerOfTwoCountsUpToTheCap) {
  for (const std::size_t s : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}, std::size_t{256}}) {
    ShardCliOptions o;
    o.shards = s;
    o.shards_set = true;
    EXPECT_EQ(validate_shard_options(o, kKeys), std::nullopt)
        << "--shards " << s;
  }
}

TEST(PlsimShardOptions, RejectsZeroNonPowerOfTwoAndOversizedCounts) {
  ShardCliOptions o;
  o.shards_set = true;
  for (const std::size_t s : {std::size_t{0}, std::size_t{3}, std::size_t{6},
                              std::size_t{12}, std::size_t{100},
                              std::size_t{512}}) {
    o.shards = s;
    const auto err = validate_shard_options(o, kKeys);
    ASSERT_TRUE(err) << "--shards " << s;
    EXPECT_NE(err->find("--shards"), std::string::npos);
  }
}

TEST(PlsimShardOptions, ShardingNeedsTheMultiKeyServiceMode) {
  ShardCliOptions o;
  o.shards = 4;
  o.shards_set = true;
  const auto err = validate_shard_options(o, 0);
  ASSERT_TRUE(err);
  EXPECT_NE(err->find("--keys"), std::string::npos);
  EXPECT_EQ(validate_shard_options(o, 1), std::nullopt);
}

TEST(PlsimOptions, ProbesDefaultsAreValid) {
  EXPECT_EQ(validate_strategy_options({}), std::nullopt);
  StrategyCliOptions o;
  o.kind = core::StrategyKind::kMultiProbe;
  EXPECT_EQ(validate_strategy_options(o), std::nullopt);
}

TEST(PlsimOptions, ProbesRequiresMultiProbeStrategy) {
  StrategyCliOptions o;
  o.probes = 8;
  o.probes_set = true;
  const auto err = validate_strategy_options(o);
  ASSERT_TRUE(err);
  EXPECT_NE(err->find("--strategy multiprobe"), std::string::npos);
  o.kind = core::StrategyKind::kMultiProbe;
  EXPECT_EQ(validate_strategy_options(o), std::nullopt);
}

TEST(PlsimOptions, ProbesMustBeInRange) {
  StrategyCliOptions o;
  o.kind = core::StrategyKind::kMultiProbe;
  o.probes_set = true;
  o.probes = 0;
  EXPECT_TRUE(validate_strategy_options(o));
  o.probes = 1;
  EXPECT_EQ(validate_strategy_options(o), std::nullopt);
  o.probes = 64;
  EXPECT_EQ(validate_strategy_options(o), std::nullopt);
  o.probes = 65;
  EXPECT_TRUE(validate_strategy_options(o));
}

TEST(PlsimOptions, ParamZeroIsRejectedForEveryFamilyButFullReplication) {
  for (const auto kind :
       {core::StrategyKind::kFixed, core::StrategyKind::kRandomServer,
        core::StrategyKind::kRoundRobin, core::StrategyKind::kHash,
        core::StrategyKind::kMultiProbe}) {
    StrategyCliOptions o;
    o.kind = kind;
    o.param = 0;
    const auto err = validate_strategy_options(o);
    ASSERT_TRUE(err) << core::to_string(kind);
    EXPECT_NE(err->find("--param"), std::string::npos);
    o.param = 1;
    EXPECT_EQ(validate_strategy_options(o), std::nullopt)
        << core::to_string(kind);
  }
  StrategyCliOptions full;
  full.kind = core::StrategyKind::kFullReplication;
  full.param = 0;
  EXPECT_EQ(validate_strategy_options(full), std::nullopt);
}

TEST(PlsimOptions, RoundRobinYMustNotExceedTheServerCount) {
  StrategyCliOptions o;
  o.kind = core::StrategyKind::kRoundRobin;
  o.servers = 8;
  o.param = 8;
  EXPECT_EQ(validate_strategy_options(o), std::nullopt);
  o.param = 9;
  const auto err = validate_strategy_options(o);
  ASSERT_TRUE(err);
  EXPECT_NE(err->find("--servers"), std::string::npos);
  // The other families take any y >= 1: Hash-y and MultiProbe map several
  // groups onto one server, Fixed-x and RandomServer-x count entries.
  for (const auto kind :
       {core::StrategyKind::kFixed, core::StrategyKind::kRandomServer,
        core::StrategyKind::kHash, core::StrategyKind::kMultiProbe}) {
    o.kind = kind;
    EXPECT_EQ(validate_strategy_options(o), std::nullopt)
        << core::to_string(kind);
  }
}

TEST(PlsimOptions, ServersMustBePositive) {
  StrategyCliOptions o;
  o.servers = 0;
  o.kind = core::StrategyKind::kFullReplication;
  const auto err = validate_strategy_options(o);
  ASSERT_TRUE(err);
  EXPECT_NE(err->find("--servers"), std::string::npos);
}

TEST(PlsimTransportOptions, DefaultsAreValid) {
  EXPECT_EQ(validate_transport_options({}, {}), std::nullopt);
}

TEST(PlsimTransportOptions, AcceptsTheEndsOfEachRange) {
  net::LinkModel link;
  link.drop_probability = 1.0;
  link.duplicate_probability = 0.0;
  net::RetryPolicy retry;
  retry.max_attempts = 1;
  retry.backoff_factor = 1.0;
  EXPECT_EQ(validate_transport_options(link, retry), std::nullopt);
}

/// The error for one out-of-range field, which must name its flag.
void expect_rejected(const net::LinkModel& link, const net::RetryPolicy& retry,
                     const std::string& flag) {
  const auto err = validate_transport_options(link, retry);
  ASSERT_TRUE(err) << flag << " accepted";
  EXPECT_NE(err->find(flag), std::string::npos) << *err;
}

TEST(PlsimTransportOptions, DropMustBeAProbability) {
  for (const double p : {-0.5, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    net::LinkModel link;
    link.drop_probability = p;
    expect_rejected(link, {}, "--drop");
  }
}

TEST(PlsimTransportOptions, DupMustBeAProbability) {
  for (const double p : {-0.5, 1.5}) {
    net::LinkModel link;
    link.duplicate_probability = p;
    expect_rejected(link, {}, "--dup");
  }
}

TEST(PlsimTransportOptions, MaxAttemptsMustBePositive) {
  net::RetryPolicy retry;
  retry.max_attempts = 0;
  expect_rejected({}, retry, "--max-attempts");
}

TEST(PlsimTransportOptions, TimeoutMustBePositive) {
  for (const double t : {0.0, -1.0}) {
    net::RetryPolicy retry;
    retry.base_timeout = t;
    expect_rejected({}, retry, "--timeout");
  }
}

TEST(PlsimTransportOptions, BackoffMustBeAtLeastOne) {
  net::RetryPolicy retry;
  retry.backoff_factor = 0.5;
  expect_rejected({}, retry, "--backoff");
}

}  // namespace
}  // namespace pls::workload
