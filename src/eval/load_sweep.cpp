#include "eval/load_sweep.hpp"

#include <cstdio>

#include "common/error.hpp"
#include "eval/fleet_sim.hpp"

namespace vibguard::eval {

namespace {

double mean_of(std::uint64_t total, std::uint64_t n) {
  return n > 0 ? static_cast<double>(total) / static_cast<double>(n) : 0.0;
}

}  // namespace

std::string LoadSweepResult::summary() const {
  std::string out = "load sweep\n";
  char line[200];
  std::snprintf(line, sizeof(line),
                "  %7s %5s %6s %6s %7s %8s %8s %6s %5s %10s %8s %8s\n",
                "rps", "arr", "reject", "dlmiss", "primary", "degraded",
                "indeterm", "error", "trips", "queue us", "EERpri",
                "EERdeg");
  out += line;
  for (const LoadSweepPoint& p : points) {
    std::snprintf(line, sizeof(line),
                  "  %7.1f %5zu %6zu %6zu %7zu %8zu %8zu %6zu %5zu %10.0f "
                  "%8.3f %8.3f\n",
                  p.offered_rps, p.arrivals, p.rejected, p.deadline_missed,
                  p.scored_primary, p.scored_degraded, p.indeterminate,
                  p.errors, p.breaker_trips, p.mean_queue_us, p.eer_primary,
                  p.eer_degraded);
    out += line;
  }
  return out;
}

LoadSweepResult run_load_sweep(const LoadSweepConfig& config,
                               std::uint64_t seed) {
  // The single node is the 1-worker, unbatched fleet with one session.
  FleetSweepConfig fleet;
  fleet.base = config;
  fleet.workers = {1};
  fleet.sessions = 1;
  fleet.tenants = 1;
  fleet.batch_max = 1;
  fleet.batch_window_us = 0;
  fleet.batch_setup_us = 0;
  LoadSweepResult result;
  for (const FleetSweepPoint& f : run_fleet_sweep(fleet, seed).points) {
    LoadSweepPoint p;
    p.offered_rps = f.offered_rps;
    p.arrivals = f.arrivals;
    p.admitted = f.admitted;
    p.rejected = f.rejected;
    p.deadline_missed = f.deadline_missed;
    p.scored_primary = f.scored_primary;
    p.scored_degraded = f.scored_degraded;
    p.indeterminate = f.indeterminate;
    p.errors = f.errors;
    p.breaker_trips = f.breaker_trips;
    p.mean_queue_us = f.mean_queue_us;
    p.eer_primary = f.eer_primary;
    p.eer_degraded = f.eer_degraded;
    result.points.push_back(p);
  }
  return result;
}

std::string FleetSweepResult::summary() const {
  std::string out = "fleet load sweep\n";
  char line[256];
  std::snprintf(line, sizeof(line),
                "  %3s %7s %5s %6s %6s %6s %7s %8s %8s %6s %5s %7s %6s "
                "%9s %9s %8s %8s\n",
                "wrk", "rps", "arr", "reject", "quota", "dlmiss", "primary",
                "degraded", "indeterm", "error", "trips", "batches", "avg_b",
                "queue us", "thr rps", "EERpri", "EERdeg");
  out += line;
  for (const FleetSweepPoint& p : points) {
    std::snprintf(line, sizeof(line),
                  "  %3zu %7.1f %5zu %6zu %6zu %6zu %7zu %8zu %8zu %6zu "
                  "%5zu %7zu %6.2f %9.0f %9.2f %8.3f %8.3f\n",
                  p.workers, p.offered_rps, p.arrivals, p.rejected,
                  p.quota_rejected, p.deadline_missed, p.scored_primary,
                  p.scored_degraded, p.indeterminate, p.errors,
                  p.breaker_trips, p.batches, p.mean_batch, p.mean_queue_us,
                  p.throughput_rps, p.eer_primary, p.eer_degraded);
    out += line;
  }
  return out;
}

FleetSweepResult run_fleet_sweep(const FleetSweepConfig& config,
                                 std::uint64_t seed) {
  VIBGUARD_REQUIRE(!config.workers.empty(), "worker grid must be non-empty");

  SweepPopulation pop;
  render_sweep_population(config.base, seed, pop);

  FleetSweepResult result;
  for (const std::size_t num_workers : config.workers) {
    for (std::size_t p_idx = 0; p_idx < config.base.offered_rps.size();
         ++p_idx) {
      const double rps = config.base.offered_rps[p_idx];
      // Forked by load index only: every worker count replays the exact
      // same arrival times, so the scaling columns are comparable.
      const std::vector<std::uint64_t> arrival_us =
          poisson_arrivals(pop.arrival_rng, p_idx, rps, pop.order.size());
      FleetSimSetup setup;
      setup.workers = num_workers;
      setup.sessions = config.sessions;
      setup.tenants = config.tenants;
      setup.tenant_max_queued = config.tenant_max_queued;
      setup.batch_max = config.batch_max;
      setup.batch_window_us = config.batch_window_us;
      setup.batch_setup_us = config.batch_setup_us;
      setup.ring_replicas = config.ring_replicas;
      const FleetSimRun run =
          simulate_fleet(pop, arrival_us, config.base, setup);
      const ChaosSweepPoint& c = run.point;

      FleetSweepPoint point;
      point.workers = num_workers;
      point.offered_rps = rps;
      point.arrivals = c.arrivals;
      point.admitted = c.admitted;
      point.rejected = c.rejected;
      point.quota_rejected = c.quota_rejected;
      point.deadline_missed = c.deadline_missed;
      point.scored_primary = c.scored_primary;
      point.scored_degraded = c.scored_degraded;
      point.indeterminate = c.indeterminate;
      point.errors = c.errors;
      point.breaker_trips = c.breaker_trips;
      point.batches = run.batches;
      point.mean_batch = mean_of(run.batched_items, run.batches);
      point.mean_queue_us = mean_of(run.total_queue_us, run.dequeued);
      point.mean_latency_us = mean_of(run.total_latency_us, run.latency_n);
      // Completions are the requests that got a verdict; an admitted
      // request that later expired is not one.
      point.throughput_rps =
          run.makespan_us > 0
              ? static_cast<double>(c.answered) /
                    (static_cast<double>(run.makespan_us) * 1e-6)
              : 0.0;
      point.eer_primary = c.eer_primary;
      point.eer_degraded = c.eer_degraded;
      result.points.push_back(point);
    }
  }
  return result;
}

}  // namespace vibguard::eval
