// Golden pins for the serving sweeps: the integer columns of the load
// sweep, the 1- and 2-worker fleet sweep (both at 4+4 trials, seed 7) and
// every default and remediation chaos scenario (default config, seed 42),
// recorded before the three sweeps were folded onto one simulator. The
// determinism tests elsewhere compare a run with itself; these compare it
// with a fixed record, so a change to the event loop that moves any
// request between buckets fails here. Only integer columns are pinned:
// a score re-baseline that moves EER leaves these untouched.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "eval/chaos_sweep.hpp"
#include "eval/load_sweep.hpp"

namespace vibguard::eval {
namespace {

LoadSweepConfig small_load() {
  LoadSweepConfig cfg;
  cfg.legit_trials = 4;
  cfg.attack_trials = 4;
  return cfg;
}

struct LoadRow {
  std::size_t arrivals, admitted, rejected, deadline_missed, primary,
      degraded, indeterminate, errors, trips;
};

TEST(SweepGoldenTest, LoadSweepIntegerColumns) {
  const std::vector<LoadRow> golden = {
      {8, 8, 0, 0, 8, 0, 0, 0, 0},  // 2 rps
      {8, 8, 0, 0, 8, 0, 0, 0, 0},  // 5 rps
      {8, 8, 0, 3, 2, 3, 0, 0, 1},  // 10 rps
      {8, 8, 0, 5, 3, 0, 0, 0, 1},  // 20 rps
      {8, 8, 0, 6, 2, 0, 0, 0, 1},  // 50 rps
  };
  const LoadSweepResult result = run_load_sweep(small_load(), 7);
  ASSERT_EQ(result.points.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const LoadSweepPoint& p = result.points[i];
    const LoadRow& g = golden[i];
    SCOPED_TRACE(p.offered_rps);
    EXPECT_EQ(p.arrivals, g.arrivals);
    EXPECT_EQ(p.admitted, g.admitted);
    EXPECT_EQ(p.rejected, g.rejected);
    EXPECT_EQ(p.deadline_missed, g.deadline_missed);
    EXPECT_EQ(p.scored_primary, g.primary);
    EXPECT_EQ(p.scored_degraded, g.degraded);
    EXPECT_EQ(p.indeterminate, g.indeterminate);
    EXPECT_EQ(p.errors, g.errors);
    EXPECT_EQ(p.breaker_trips, g.trips);
  }
}

struct FleetRow {
  std::size_t workers, arrivals, admitted, rejected, quota_rejected,
      deadline_missed, primary, degraded, indeterminate, errors, trips,
      batches;
};

TEST(SweepGoldenTest, FleetSweepIntegerColumns) {
  const std::vector<FleetRow> golden = {
      {1, 8, 8, 0, 0, 0, 8, 0, 0, 0, 0, 8},  // 2 rps
      {1, 8, 8, 0, 0, 1, 7, 0, 0, 0, 0, 6},  // 5 rps
      {1, 8, 8, 0, 0, 3, 2, 3, 0, 0, 1, 6},  // 10 rps
      {1, 8, 8, 0, 0, 6, 2, 0, 0, 0, 1, 3},  // 20 rps
      {1, 8, 8, 0, 0, 6, 2, 0, 0, 0, 1, 3},  // 50 rps
      {2, 8, 8, 0, 0, 0, 8, 0, 0, 0, 0, 8},
      {2, 8, 8, 0, 0, 0, 8, 0, 0, 0, 0, 7},
      {2, 8, 8, 0, 0, 3, 4, 1, 0, 0, 1, 6},
      {2, 8, 8, 0, 0, 4, 4, 0, 0, 0, 1, 4},
      {2, 8, 8, 0, 0, 4, 4, 0, 0, 0, 1, 4},
  };
  FleetSweepConfig cfg;
  cfg.base = small_load();
  cfg.workers = {1, 2};
  const FleetSweepResult result = run_fleet_sweep(cfg, 7);
  ASSERT_EQ(result.points.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const FleetSweepPoint& p = result.points[i];
    const FleetRow& g = golden[i];
    SCOPED_TRACE(std::to_string(p.workers) + " workers at " +
                 std::to_string(p.offered_rps) + " rps");
    EXPECT_EQ(p.workers, g.workers);
    EXPECT_EQ(p.arrivals, g.arrivals);
    EXPECT_EQ(p.admitted, g.admitted);
    EXPECT_EQ(p.rejected, g.rejected);
    EXPECT_EQ(p.quota_rejected, g.quota_rejected);
    EXPECT_EQ(p.deadline_missed, g.deadline_missed);
    EXPECT_EQ(p.scored_primary, g.primary);
    EXPECT_EQ(p.scored_degraded, g.degraded);
    EXPECT_EQ(p.indeterminate, g.indeterminate);
    EXPECT_EQ(p.errors, g.errors);
    EXPECT_EQ(p.breaker_trips, g.trips);
    EXPECT_EQ(p.batches, g.batches);
  }
}

struct ChaosRow {
  std::string scenario;
  std::size_t workers_start, workers_end, answered, rejected,
      deadline_missed, lost, dropped, migrated, failovers;
};

TEST(SweepGoldenTest, ChaosSweepIntegerColumns) {
  const std::vector<ChaosRow> golden = {
      {"none", 4, 4, 33, 0, 7, 0, 0, 0, 0},
      {"stall_w1", 4, 3, 32, 0, 8, 0, 0, 5, 1},
      {"slow_w1", 4, 4, 31, 0, 9, 0, 0, 0, 0},
      {"lossy_w1", 4, 4, 33, 0, 7, 0, 0, 0, 0},
      {"crash_w1", 4, 3, 31, 0, 9, 0, 0, 5, 1},
      {"crash_grow", 4, 4, 31, 0, 9, 0, 0, 7, 1},
      {"slow_steal", 4, 4, 31, 0, 9, 0, 0, 0, 0},
      {"wedge_recover", 4, 4, 32, 0, 8, 0, 0, 10, 0},
      {"overload_grow", 4, 8, 24, 0, 16, 0, 0, 10, 0},
  };
  const ChaosSweepResult result = run_chaos_sweep(ChaosSweepConfig{}, 42);
  ASSERT_EQ(result.points.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const ChaosSweepPoint& p = result.points[i];
    const ChaosRow& g = golden[i];
    SCOPED_TRACE(g.scenario);
    EXPECT_EQ(p.scenario, g.scenario);
    EXPECT_EQ(p.workers_start, g.workers_start);
    EXPECT_EQ(p.workers_end, g.workers_end);
    EXPECT_EQ(p.answered, g.answered);
    EXPECT_EQ(p.rejected + p.quota_rejected + p.closed_rejected, g.rejected);
    EXPECT_EQ(p.deadline_missed, g.deadline_missed);
    EXPECT_EQ(p.results_lost, g.lost);
    EXPECT_EQ(p.migration_dropped, g.dropped);
    EXPECT_EQ(p.sessions_migrated, g.migrated);
    EXPECT_EQ(p.failovers, g.failovers);
    EXPECT_TRUE(p.accounted);
  }
}

}  // namespace
}  // namespace vibguard::eval
