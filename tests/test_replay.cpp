// Tests for the workload replayer and the Fig 12 availability measurement.
#include <gtest/gtest.h>

#include "pls/core/strategy_factory.hpp"
#include "pls/workload/replay.hpp"

namespace pls::workload {
namespace {

GeneratedWorkload small_workload(std::size_t updates = 2000,
                                 std::uint64_t seed = 7) {
  WorkloadConfig cfg;
  cfg.steady_state_entries = 50;
  cfg.num_updates = updates;
  cfg.seed = seed;
  return generate_workload(cfg);
}

std::unique_ptr<core::Strategy> make(core::StrategyKind kind,
                                     std::size_t param) {
  return core::make_strategy(
      core::StrategyConfig{.kind = kind, .param = param, .seed = 21}, 10);
}

TEST(Replayer, AppliesEveryEvent) {
  const auto wl = small_workload();
  const auto s = make(core::StrategyKind::kHash, 2);
  Replayer replayer(*s, wl);
  const auto result = replayer.run();
  EXPECT_EQ(result.adds_applied + result.deletes_applied, wl.events.size());
  EXPECT_DOUBLE_EQ(result.end_time, wl.events.back().time);
}

TEST(Replayer, FinalPlacementMatchesLiveSet) {
  const auto wl = small_workload();
  const auto s = make(core::StrategyKind::kHash, 2);
  Replayer(*s, wl).run();
  std::set<Entry> live(wl.initial.begin(), wl.initial.end());
  for (const auto& ev : wl.events) {
    if (ev.kind == UpdateKind::kAdd) {
      live.insert(ev.entry);
    } else {
      live.erase(ev.entry);
    }
  }
  EXPECT_EQ(s->placement().distinct_entries(), live.size());
}

TEST(Replayer, ObserverSeesEveryEventWithGaps) {
  const auto wl = small_workload(500);
  const auto s = make(core::StrategyKind::kFullReplication, 0);
  Replayer replayer(*s, wl);
  std::size_t calls = 0;
  double gap_sum = 0.0;
  replayer.set_observer(
      [&](const UpdateEvent& ev, std::size_t index, SimTime gap) {
        EXPECT_EQ(ev.entry, wl.events[index].entry);
        EXPECT_GE(gap, 0.0);
        ++calls;
        gap_sum += gap;
      });
  replayer.run();
  EXPECT_EQ(calls, wl.events.size());
  EXPECT_NEAR(gap_sum, wl.events.back().time - wl.events.front().time, 1e-6);
}

TEST(Replayer, RoundRobinSurvivesFullReplay) {
  // End-to-end churn through the migration protocol.
  const auto wl = small_workload(1500, 99);
  const auto s = make(core::StrategyKind::kRoundRobin, 2);
  Replayer(*s, wl).run();
  std::set<Entry> live(wl.initial.begin(), wl.initial.end());
  for (const auto& ev : wl.events) {
    if (ev.kind == UpdateKind::kAdd) {
      live.insert(ev.entry);
    } else {
      live.erase(ev.entry);
    }
  }
  EXPECT_EQ(s->placement().distinct_entries(), live.size());
  EXPECT_EQ(s->storage_cost(), live.size() * 2);
}

TEST(Replayer, RejectsAStreamThatGoesBackInTime) {
  const auto s = make(core::StrategyKind::kHash, 2);
  GeneratedWorkload backwards;
  backwards.events = {{5.0, UpdateKind::kAdd, 1}, {3.0, UpdateKind::kAdd, 2}};
  EXPECT_THROW(Replayer(*s, backwards).run(), std::logic_error);

  GeneratedWorkload before_zero;
  before_zero.events = {{-1.0, UpdateKind::kAdd, 1}};
  EXPECT_THROW(Replayer(*s, before_zero).run(), std::logic_error);

  // Ties are in order: equal times apply in index order.
  GeneratedWorkload ties;
  ties.events = {{2.0, UpdateKind::kAdd, 1}, {2.0, UpdateKind::kDelete, 1}};
  const auto result = Replayer(*s, ties).run();
  EXPECT_EQ(result.adds_applied, 1u);
  EXPECT_EQ(result.deletes_applied, 1u);
  EXPECT_EQ(s->placement().distinct_entries(), 0u);
}

TEST(UnavailableFraction, ZeroForFullReplication) {
  const auto wl = small_workload();
  const auto s = make(core::StrategyKind::kFullReplication, 0);
  EXPECT_DOUBLE_EQ(unavailable_time_fraction(*s, wl, 10), 0.0);
}

TEST(UnavailableFraction, FixedWithoutCushionFailsSometimes) {
  // Fig 12 at b=0: over 10% of the time the lookup cannot be satisfied.
  const auto wl = small_workload(4000);
  const std::size_t t = 15;
  const auto s = make(core::StrategyKind::kFixed, t);  // x = t, no cushion
  const double fraction = unavailable_time_fraction(*s, wl, t);
  EXPECT_GT(fraction, 0.02);
  EXPECT_LT(fraction, 0.6);
}

TEST(UnavailableFraction, CushionReducesFailureTime) {
  const auto wl = small_workload(4000);
  const std::size_t t = 15;
  const auto bare = make(core::StrategyKind::kFixed, t);
  const auto cushioned = make(core::StrategyKind::kFixed, t + 4);
  EXPECT_LT(unavailable_time_fraction(*cushioned, wl, t),
            unavailable_time_fraction(*bare, wl, t));
}

TEST(UnavailableFraction, EmptyWorkloadRejected) {
  GeneratedWorkload wl;
  const auto s = make(core::StrategyKind::kFixed, 5);
  EXPECT_THROW(unavailable_time_fraction(*s, wl, 3), std::logic_error);
}

}  // namespace
}  // namespace pls::workload
