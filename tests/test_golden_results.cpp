// Golden-trace regression tests: one frozen experiment per strategy, run
// through the trial runner and compared metric-by-metric against the JSON
// snapshots in tests/golden/. The aggregates are deterministic functions
// of (trials, master seed) — any drift means simulator behaviour changed
// and must be acknowledged by regenerating the goldens:
//
//   PLS_UPDATE_GOLDEN=1 ./build/tests/test_golden_results
//
// PLS_GOLDEN_DIR is injected by tests/CMakeLists.txt and points at the
// source-tree golden directory.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "pls/core/strategy_factory.hpp"
#include "pls/metrics/lookup_cost.hpp"
#include "pls/metrics/trial_accumulator.hpp"
#include "pls/metrics/unfairness.hpp"
#include "pls/sim/trial_runner.hpp"
#include "pls/workload/replay.hpp"

namespace pls {
namespace {

struct GoldenScenario {
  const char* name;
  core::StrategyKind kind;
  std::size_t param;
  double drop = 0.0;  ///< link loss probability (0 = reliable link)
};

constexpr GoldenScenario kScenarios[] = {
    {"full_replication", core::StrategyKind::kFullReplication, 1},
    {"fixed_20", core::StrategyKind::kFixed, 20},
    {"random_server_20", core::StrategyKind::kRandomServer, 20},
    {"round_robin_2", core::StrategyKind::kRoundRobin, 2},
    {"hash_2", core::StrategyKind::kHash, 2},
    {"round_robin_2_lossy", core::StrategyKind::kRoundRobin, 2, 0.2},
};

/// gtest prints GetParam() into each discovered ctest name; without this
/// it dumps the struct's raw bytes, whose leading `name` pointer moves with
/// every process's load address, so the test names changed on each build.
void PrintTo(const GoldenScenario& sc, std::ostream* os) { *os << sc.name; }

/// The frozen experiment: 4 trials of place + panel metrics + churn on a
/// 10-server cluster, h = 100, t = 15. Every number derives from the
/// trial seed, so the aggregate is reproducible on any machine and any
/// --jobs-equivalent thread count.
metrics::TrialAccumulator run_scenario(const GoldenScenario& sc) {
  const sim::TrialRunner runner;  // hardware concurrency; result-invariant
  return metrics::run_trials(
      runner, 4, 20260806, [&](std::size_t, std::uint64_t seed) {
        metrics::TrialAccumulator trial;
        core::StrategyConfig cfg;
        cfg.kind = sc.kind;
        cfg.param = sc.param;
        cfg.seed = seed;
        if (sc.drop > 0.0) {
          cfg.link.drop_probability = sc.drop;
          cfg.retry.max_attempts = 4;
        }
        const auto s = core::make_strategy(cfg, 10);

        std::vector<Entry> entries(100);
        for (std::size_t i = 0; i < entries.size(); ++i) entries[i] = i + 1;
        s->place(entries);

        trial.add("storage", static_cast<double>(s->storage_cost()));
        const auto cost = metrics::measure_lookup_cost(*s, 15, 200);
        trial.add("lookup_cost", cost.mean_servers);
        trial.add("failure_rate", cost.failure_rate);
        trial.add("unfairness",
                  metrics::instance_unfairness(*s, entries, 15, 200));

        workload::WorkloadConfig wc;
        wc.steady_state_entries = 100;
        wc.num_updates = 400;
        wc.seed = seed + 1;
        const auto wl = workload::generate_workload(wc);
        s->place(wl.initial);
        s->network().reset_stats();
        workload::Replayer replayer(*s, wl);
        (void)replayer.run();
        trial.add_transport("net/", s->network().stats());
        return trial;
      });
}

struct GoldenRow {
  std::size_t count = 0;
  double mean = 0, stderr_of_mean = 0, min = 0, max = 0;
};

/// Parses the exact shape TrialAccumulator::to_json emits — one
/// `"name": {"count": N, "mean": X, ...}` object per line.
std::map<std::string, GoldenRow> parse_golden(const std::string& text) {
  std::map<std::string, GoldenRow> rows;
  std::istringstream in(text);
  std::string line;
  auto number_after = [&](const std::string& l, const char* key) {
    const auto at = l.find(std::string("\"") + key + "\": ");
    EXPECT_NE(at, std::string::npos) << key << " missing in: " << l;
    if (at == std::string::npos) return 0.0;
    const char* start = l.c_str() + at + std::strlen(key) + 4;
    if (std::strncmp(start, "null", 4) == 0) return std::nan("");
    return std::strtod(start, nullptr);
  };
  while (std::getline(in, line)) {
    const auto open = line.find('"');
    if (open == std::string::npos) continue;
    const auto close = line.find('"', open + 1);
    if (close == std::string::npos ||
        line.find("\"count\"", close) == std::string::npos) {
      continue;
    }
    GoldenRow row;
    row.count = static_cast<std::size_t>(number_after(line, "count"));
    row.mean = number_after(line, "mean");
    row.stderr_of_mean = number_after(line, "stderr");
    row.min = number_after(line, "min");
    row.max = number_after(line, "max");
    rows.emplace(line.substr(open + 1, close - open - 1), row);
  }
  return rows;
}

std::string golden_path(const GoldenScenario& sc) {
  return std::string(PLS_GOLDEN_DIR) + "/" + sc.name + ".json";
}

class GoldenResults : public ::testing::TestWithParam<GoldenScenario> {};

TEST_P(GoldenResults, MatchesSnapshot) {
  const auto& sc = GetParam();
  const auto acc = run_scenario(sc);

  if (std::getenv("PLS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(sc));
    out << acc.to_json() << "\n";
    ASSERT_TRUE(out.good()) << "could not write " << golden_path(sc);
    GTEST_SKIP() << "regenerated " << golden_path(sc);
  }

  std::ifstream in(golden_path(sc));
  ASSERT_TRUE(in.good())
      << golden_path(sc)
      << " missing; regenerate with PLS_UPDATE_GOLDEN=1";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto golden = parse_golden(buffer.str());
  const auto current = parse_golden(acc.to_json());

  ASSERT_EQ(current.size(), golden.size()) << "metric set changed";
  for (const auto& [name, want] : golden) {
    ASSERT_TRUE(current.count(name)) << "metric " << name << " disappeared";
    const auto& got = current.at(name);
    EXPECT_EQ(got.count, want.count) << name;
    // The doubles were serialised with max_digits10, so parsing recovers
    // them exactly; the tolerance only absorbs the decimal round-trip.
    const auto near = [&](double a, double b, const char* field) {
      EXPECT_NEAR(a, b, 1e-12 * std::max(1.0, std::abs(b)))
          << name << "." << field;
    };
    near(got.mean, want.mean, "mean");
    near(got.stderr_of_mean, want.stderr_of_mean, "stderr");
    near(got.min, want.min, "min");
    near(got.max, want.max, "max");
  }
}

std::string scenario_name(
    const ::testing::TestParamInfo<GoldenScenario>& param_info) {
  return param_info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Scenarios, GoldenResults,
                         ::testing::ValuesIn(kScenarios), scenario_name);

}  // namespace
}  // namespace pls
