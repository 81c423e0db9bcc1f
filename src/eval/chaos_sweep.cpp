#include "eval/chaos_sweep.hpp"

#include <algorithm>
#include <cstdio>

#include "common/error.hpp"
#include "eval/fleet_sim.hpp"

namespace vibguard::eval {

std::vector<ChaosScenario> default_chaos_scenarios(std::uint64_t horizon_us) {
  const std::uint64_t h = std::max<std::uint64_t>(horizon_us, 10);
  std::vector<ChaosScenario> scenarios;
  scenarios.push_back({"none", faults::ChaosPlan{}, std::nullopt, std::nullopt});
  {
    ChaosScenario s;
    s.name = "stall_w1";
    s.plan.stall(1, 3 * h / 10, 6 * h / 10);
    scenarios.push_back(std::move(s));
  }
  {
    ChaosScenario s;
    s.name = "slow_w1";
    s.plan.slow(1, 2 * h / 10, 8 * h / 10, 4.0);
    scenarios.push_back(std::move(s));
  }
  {
    ChaosScenario s;
    s.name = "lossy_w1";
    s.plan.lossy(1, 2 * h / 10, 8 * h / 10, 0.3);
    scenarios.push_back(std::move(s));
  }
  {
    ChaosScenario s;
    s.name = "crash_w1";
    s.plan.crash(1, 35 * h / 100);
    scenarios.push_back(std::move(s));
  }
  {
    ChaosScenario s;
    s.name = "crash_grow";
    s.plan.crash(1, 35 * h / 100);
    s.grow_at_us = 6 * h / 10;
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

std::vector<ChaosScenario> remediation_chaos_scenarios(
    std::uint64_t horizon_us, std::size_t workers) {
  const std::uint64_t h = std::max<std::uint64_t>(horizon_us, 10);
  std::vector<ChaosScenario> scenarios;
  {
    // Three 40 ms stalls: with a 20 ms poll, 10 ms slow and 50 ms wedged
    // threshold each stall yields exactly two SLOW polls (ages 20 and
    // 40 ms) and never crosses WEDGED — only the steal rung can fire.
    ChaosScenario s;
    s.name = "slow_steal";
    s.plan.stall(1, 2 * h / 10, 2 * h / 10 + 40'000)
        .stall(1, 4 * h / 10, 4 * h / 10 + 40'000)
        .stall(1, 6 * h / 10, 6 * h / 10 + 40'000);
    serving::RemediationConfig r;
    r.enabled = true;
    r.steal = true;
    r.steal_min_depth = 1;
    r.quarantine = false;
    r.grow = false;
    s.remediation = r;
    scenarios.push_back(std::move(s));
  }
  {
    // One 120 ms stall: the third silent poll crosses the 50 ms wedged
    // threshold → quarantine + pump restart; the stall ends well inside
    // the 200 ms probe window, the fresh-epoch beat lands, the worker is
    // restored.
    ChaosScenario s;
    s.name = "wedge_recover";
    s.plan = faults::wedge_then_recover_plan(1, 3 * h / 10, 120'000);
    serving::RemediationConfig r;
    r.enabled = true;
    r.steal = false;
    r.quarantine = true;
    r.probe_timeout_us = 200'000;
    r.grow = false;
    s.remediation = r;
    scenarios.push_back(std::move(s));
  }
  {
    // Every STARTING worker throttled 2x for the whole run (and drain) —
    // queue ages climb, the K-of-N window confirms, and the supervisor
    // grows the fleet; the grown workers are outside the throttle set.
    ChaosScenario s;
    s.name = "overload_grow";
    for (std::size_t w = 0; w < workers; ++w) {
      s.plan.slow(w, h / 20, 10 * h, 2.0);
    }
    serving::RemediationConfig r;
    r.enabled = true;
    r.steal = false;
    r.quarantine = false;
    r.grow = true;
    r.overload_window = 4;
    r.overload_confirm = 3;
    r.queue_age_threshold_us = 60'000;
    r.cooldown_us = std::max<std::uint64_t>(h / 4, 100'000);
    r.max_workers = workers + 4;
    // Pinning is exercised by its own test; keep it out of this
    // scenario's way.
    r.flap_actions = 64;
    s.remediation = r;
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

std::string ChaosSweepResult::summary() const {
  std::string out = "chaos sweep\n";
  char line[320];
  std::snprintf(line, sizeof(line),
                "  %-13s %5s %5s %5s %5s %6s %5s %5s %4s %4s %3s %9s "
                "%6s %8s %7s %3s %8s\n",
                "scenario", "wrk", "arr", "ans", "rej", "dlmiss", "lost",
                "drop", "mig", "fo", "ok", "detect ms", "avail", "EERpri",
                "p95 ms", "rem", "rem ms");
  out += line;
  for (const ChaosSweepPoint& p : points) {
    char wrk[16];
    std::snprintf(wrk, sizeof(wrk), "%zu>%zu", p.workers_start,
                  p.workers_end);
    const std::size_t remediations = p.steals + p.quarantines +
                                     p.recoveries + p.escalations + p.grows +
                                     p.flap_suppressed;
    std::snprintf(line, sizeof(line),
                  "  %-13s %5s %5zu %5zu %5zu %6zu %5zu %5zu %4zu %4zu "
                  "%3s %9.1f %6.3f %8.3f %7.1f %3zu %8.1f\n",
                  p.scenario.c_str(), wrk, p.arrivals, p.answered,
                  p.rejected + p.quota_rejected + p.closed_rejected,
                  p.deadline_missed, p.results_lost, p.migration_dropped,
                  p.sessions_migrated, p.failovers,
                  p.accounted ? "yes" : "NO",
                  static_cast<double>(p.detect_us) / 1000.0, p.availability,
                  p.eer_primary,
                  static_cast<double>(p.queue_age_p95_us) / 1000.0,
                  remediations,
                  static_cast<double>(p.remediate_us) / 1000.0);
    out += line;
  }
  return out;
}

ChaosSweepResult run_chaos_sweep(const ChaosSweepConfig& config,
                                 std::uint64_t seed) {
  VIBGUARD_REQUIRE(config.workers >= 2,
                   "chaos sweep needs at least two workers to fail over");
  VIBGUARD_REQUIRE(config.offered_rps > 0.0, "offered load must be positive");

  SweepPopulation pop;
  render_sweep_population(config.base, seed, pop);
  const std::vector<std::uint64_t> arrival_us = poisson_arrivals(
      pop.arrival_rng, 0, config.offered_rps, pop.order.size());
  const std::uint64_t horizon_us = arrival_us.back();

  std::vector<ChaosScenario> all_scenarios;
  if (config.scenarios.empty()) {
    all_scenarios = default_chaos_scenarios(horizon_us);
    std::vector<ChaosScenario> remediation =
        remediation_chaos_scenarios(horizon_us, config.workers);
    for (ChaosScenario& s : remediation) {
      all_scenarios.push_back(std::move(s));
    }
  } else {
    all_scenarios = config.scenarios;
  }
  std::vector<ChaosScenario> scenarios;
  if (config.scenario_filter.empty()) {
    scenarios = std::move(all_scenarios);
  } else {
    for (ChaosScenario& s : all_scenarios) {
      if (s.name == config.scenario_filter) scenarios.push_back(std::move(s));
    }
    VIBGUARD_REQUIRE(!scenarios.empty(),
                     "unknown chaos scenario: " + config.scenario_filter);
  }

  ChaosSweepResult result;
  for (const ChaosScenario& scenario : scenarios) {
    FleetSimSetup setup;
    setup.workers = config.workers;
    setup.sessions = config.sessions;
    setup.tenants = config.tenants;
    setup.batch_max = config.batch_max;
    setup.batch_window_us = config.batch_window_us;
    setup.batch_setup_us = config.batch_setup_us;
    setup.ring_replicas = config.ring_replicas;
    setup.supervisor = config.supervisor;
    if (scenario.remediation.has_value()) {
      setup.supervisor->remediation = *scenario.remediation;
    }
    setup.supervisor_poll_us = config.supervisor_poll_us;
    setup.plan = scenario.plan;
    setup.chaos_seed = config.chaos_seed;
    setup.grow_at_us = scenario.grow_at_us;
    FleetSimRun run = simulate_fleet(pop, arrival_us, config.base, setup);
    run.point.scenario = scenario.name.empty() ? scenario.plan.describe()
                                               : scenario.name;
    result.points.push_back(std::move(run.point));
  }
  return result;
}

}  // namespace vibguard::eval
