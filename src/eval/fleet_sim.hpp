// The one discrete-event simulator behind the serving sweeps.
//
// Replays a rendered SweepPopulation as a timed request stream through a
// sharded serving::Server on a VirtualClock. The load sweep (one worker,
// one session, no batching), the fleet sweep (a worker grid) and the chaos
// sweep (a fault plan, a supervisor and optional growth) are all setups of
// this one loop, so their fault-free rows agree by construction. Service
// times are modeled (nothing ever sleeps); the scores come from the real
// pipeline.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "eval/chaos_sweep.hpp"
#include "eval/sweep_population.hpp"
#include "faults/serving_faults.hpp"
#include "serving/supervisor.hpp"

namespace vibguard::eval {

/// The serving topology of one run plus its optional control plane and
/// faults. No supervisor, an empty plan and no growth is a plain
/// fault-free fleet.
struct FleetSimSetup {
  std::size_t workers = 1;
  /// Request i belongs to session i mod sessions; session s to tenant
  /// s mod tenants.
  std::size_t sessions = 1;
  std::uint32_t tenants = 1;
  std::size_t tenant_max_queued = SIZE_MAX;
  std::size_t batch_max = 1;
  std::uint64_t batch_window_us = 0;
  /// Fixed per-batch overhead before the first item serves.
  std::uint64_t batch_setup_us = 0;
  std::size_t ring_replicas = 64;

  /// When set, a Supervisor polls the fleet every supervisor_poll_us
  /// (which must then be positive) and live workers beat at each poll.
  std::optional<serving::SupervisorConfig> supervisor;
  std::uint64_t supervisor_poll_us = 0;
  faults::ChaosPlan plan;
  std::uint64_t chaos_seed = 0;
  /// When set, one worker joins at this virtual time.
  std::optional<std::uint64_t> grow_at_us;
};

/// One run's outcome: the chaos sweep's full request accounting (the
/// scenario name is left to the caller) plus the batch, queue and latency
/// totals the fleet sweep reports.
struct FleetSimRun {
  ChaosSweepPoint point;
  std::uint64_t batches = 0;
  std::uint64_t batched_items = 0;
  std::uint64_t dequeued = 0;          ///< service dequeues (not expired)
  std::uint64_t total_queue_us = 0;    ///< summed over service dequeues
  std::uint64_t total_latency_us = 0;  ///< arrival → completion, in budget
  std::size_t latency_n = 0;
  std::uint64_t makespan_us = 0;       ///< end of the last batch
};

/// Runs `pop` through the fleet `setup` describes, request i arriving at
/// arrival_us[i]. The service model, queue bound, deadline, breaker and
/// degraded route come from `base`. Deterministic.
FleetSimRun simulate_fleet(const SweepPopulation& pop,
                           const std::vector<std::uint64_t>& arrival_us,
                           const LoadSweepConfig& base,
                           const FleetSimSetup& setup);

}  // namespace vibguard::eval
