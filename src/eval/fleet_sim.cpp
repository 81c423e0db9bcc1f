#include "eval/fleet_sim.hpp"

#include <algorithm>
#include <limits>

#include "common/clock.hpp"
#include "common/error.hpp"

namespace vibguard::eval {
namespace {

/// Simulation bound past the last arrival for a supervised or faulted
/// fleet: one that cannot drain (e.g. every worker crashed with failover
/// disabled) stops here and the leftovers are counted as `stranded`
/// instead of looping forever. A plain fleet always drains.
constexpr std::uint64_t kDrainBoundUs = 10'000'000;

constexpr std::uint64_t kSessionIdBase = 0xA000;

/// Earliest time at or after `t` when worker `w` makes progress:
/// UINT64_MAX when it has crashed by then, the end of the covering stall
/// window while stalled, `t` itself otherwise.
std::uint64_t next_alive_at(const faults::ChaosController& chaos,
                            std::size_t w, std::uint64_t t) {
  for (;;) {
    if (chaos.crashed(w, t)) return UINT64_MAX;
    if (!chaos.stalled(w, t)) return t;
    std::uint64_t end = t;
    for (const faults::WorkerFault& fault : chaos.plan().faults()) {
      if (fault.kind == faults::WorkerFaultKind::kStall &&
          fault.worker == w && t >= fault.from_us && t < fault.until_us) {
        end = std::max(end, fault.until_us);
      }
    }
    t = end;  // re-check: windows may chain, or a crash may land inside
  }
}

}  // namespace

FleetSimRun simulate_fleet(const SweepPopulation& pop,
                           const std::vector<std::uint64_t>& arrival_us,
                           const LoadSweepConfig& base,
                           const FleetSimSetup& setup) {
  VIBGUARD_REQUIRE(setup.workers > 0, "worker count must be positive");
  VIBGUARD_REQUIRE(setup.sessions > 0, "need at least one session");
  VIBGUARD_REQUIRE(setup.tenants > 0, "need at least one tenant");
  // A zero cadence would schedule every poll at the same instant and the
  // loop would never advance past it.
  VIBGUARD_REQUIRE(!setup.supervisor.has_value() ||
                       setup.supervisor_poll_us > 0,
                   "supervisor poll cadence must be positive");
  const std::size_t num_requests = pop.order.size();

  VirtualClock clock;
  serving::ServerConfig server_cfg;
  server_cfg.defense = pop.primary_cfg;
  server_cfg.degraded_mode = base.degraded_mode;
  server_cfg.workers = setup.workers;
  server_cfg.ring_replicas = setup.ring_replicas;
  server_cfg.shard.queue_capacity = base.queue_capacity;
  server_cfg.shard.batch_max = setup.batch_max;
  server_cfg.shard.batch_window_us = setup.batch_window_us;
  server_cfg.shard.tenant_max_queued = setup.tenant_max_queued;
  server_cfg.shard.breaker = base.breaker;
  server_cfg.deadline_us = base.deadline_us;
  serving::Server server(server_cfg, clock);
  std::optional<serving::Supervisor> supervisor;
  if (setup.supervisor.has_value()) {
    supervisor.emplace(server, *setup.supervisor, clock);
  }
  const faults::ChaosController chaos(setup.plan, setup.chaos_seed);

  std::vector<serving::SessionHandle> handles(setup.sessions);
  for (std::size_t s = 0; s < setup.sessions; ++s) {
    handles[s] = server.open_session(
        kSessionIdBase + s, static_cast<std::uint32_t>(s) % setup.tenants);
  }

  FleetSimRun run;
  ChaosSweepPoint& point = run.point;
  point.workers_start = setup.workers;
  point.arrivals = num_requests;
  std::vector<double> legit_pri, attack_pri, legit_deg, attack_deg;
  std::vector<bool> answered_req(num_requests, false);
  std::vector<std::uint64_t> answered_queue_us;

  std::uint64_t last_failover_us = 0;
  bool any_failover = false;
  std::size_t events_seen = 0;

  const auto rehome_handles = [&](const auto& migrations) {
    for (const auto& moved : migrations) {
      const std::size_t s = moved.session_id - kSessionIdBase;
      if (s < handles.size() && handles[s] == moved.old_handle) {
        handles[s] = moved.new_handle;
      }
    }
  };

  // Results from migrations (supervisor poll or growth) fold into the
  // same buckets as batch results; rehome_items only emits expired or
  // requeue-rejected items.
  std::vector<serving::ServedResult> control_out;
  const auto account_migration_results = [&] {
    for (const serving::ServedResult& r : control_out) {
      if (r.outcome.status == core::ScoreStatus::kDeadlineExceeded) {
        ++point.deadline_missed;
      } else {
        ++point.migration_dropped;
      }
    }
    control_out.clear();
  };
  const auto apply_new_supervisor_events = [&] {
    const auto& events = supervisor->events();
    for (; events_seen < events.size(); ++events_seen) {
      const serving::SupervisorEvent& event = events[events_seen];
      // Any event can carry migrations (failover, quarantine, recovery,
      // escalation, supervisor-driven growth) — the handle updates apply
      // regardless; failover bookkeeping stays gated.
      point.items_migrated += event.items_requeued;
      rehome_handles(event.migrations);
      if (!event.failover) continue;
      any_failover = true;
      last_failover_us = std::max(last_failover_us, event.at_us);
      const std::uint64_t crash_at = chaos.crash_at_us(event.worker);
      if (point.detect_us == 0 && crash_at != UINT64_MAX &&
          event.at_us >= crash_at) {
        point.detect_us = event.at_us - crash_at;
      }
    }
  };

  std::vector<std::uint64_t> free_us(setup.workers, 0);
  std::uint64_t poll_t =
      supervisor.has_value() ? setup.supervisor_poll_us : UINT64_MAX;
  // UINT64_MAX = no growth pending (plain sentinel; an optional here
  // draws a -Wmaybe-uninitialized false positive from GCC).
  std::uint64_t grow_t = setup.grow_at_us.value_or(UINT64_MAX);
  const std::uint64_t horizon_us = arrival_us.empty() ? 0 : arrival_us.back();
  const std::uint64_t bound_us =
      supervisor.has_value() || !setup.plan.empty()
          ? horizon_us + kDrainBoundUs
          : UINT64_MAX;

  const auto total_depth = [&] {
    std::size_t depth = 0;
    for (std::size_t w = 0; w < server.workers(); ++w) {
      depth += server.shard(w).depth();
    }
    return depth;
  };

  std::vector<serving::ServedResult> results;
  std::vector<std::uint64_t> eff;

  std::size_t next_arrival = 0;
  while (next_arrival < num_requests || total_depth() > 0) {
    // Candidate events, earliest wins; control plane (growth, then the
    // supervisor) beats the data plane at equal times so failover and
    // re-placement happen before work lands on a retiring shard, and a
    // batch start beats an arrival (departures free queue space first).
    const bool have_arrival = next_arrival < num_requests;

    // The earliest batch start across workers: a worker can begin when it
    // is free and alive, its batch window has elapsed (or the batch is
    // full), and — since queue state only changes at events — never
    // before the last processed event. Lowest worker index wins ties.
    bool have_service = false;
    std::size_t sw = 0;
    std::uint64_t s_start = 0;
    for (const std::size_t w : server.active_worker_ids()) {
      const auto ready = server.shard(w).batch_ready_us();
      if (!ready.has_value()) continue;
      std::uint64_t start = std::max({free_us[w], *ready, clock.now_us()});
      start = next_alive_at(chaos, w, start);
      if (start == UINT64_MAX) continue;  // crashed: waits for failover
      if (!have_service || start < s_start) {
        have_service = true;
        sw = w;
        s_start = start;
      }
    }

    std::uint64_t next_event = std::min(grow_t, poll_t);
    if (have_arrival) next_event = std::min(next_event, arrival_us[next_arrival]);
    if (have_service) next_event = std::min(next_event, s_start);

    // Nothing left that can happen, or a wedged fleet: bail to stranded.
    if (next_event == UINT64_MAX || next_event > bound_us) break;

    if (grow_t == next_event) {
      clock.set(grow_t);
      serving::ResizeReport report;
      const std::size_t w = server.add_worker(control_out, &report);
      if (supervisor.has_value()) supervisor->watch(w);
      free_us.push_back(0);
      account_migration_results();
      point.items_migrated += report.items_requeued;
      point.sessions_migrated += report.sessions.size();
      rehome_handles(report.sessions);
      grow_t = UINT64_MAX;
      continue;
    }

    if (poll_t == next_event) {
      clock.set(poll_t);
      // Live workers stamp their heartbeat at the poll tick — the
      // discrete-time stand-in for the pump's per-iteration beat.
      // Quarantined workers beat too (their process is alive, merely
      // fenced off the ring): that fresh-epoch beat IS the probe signal
      // recovery waits for. Only retired workers stay silent.
      for (std::size_t w = 0; w < server.workers(); ++w) {
        if (server.worker_state(w) == serving::WorkerState::kRetired) {
          continue;
        }
        if (chaos.alive(w, poll_t)) server.shard(w).beat();
      }
      supervisor->poll(control_out);
      account_migration_results();
      apply_new_supervisor_events();
      // The supervisor may have grown the fleet inside poll().
      while (free_us.size() < server.workers()) free_us.push_back(0);
      poll_t += setup.supervisor_poll_us;
      continue;
    }

    if (have_service && s_start == next_event) {
      clock.set(s_start);
      const auto planned = server.form_batch(sw);
      // s_start >= the shard's ready time and the queue is untouched
      // since it was computed, so the batch always forms.
      VIBGUARD_REQUIRE(planned.has_value(), "ready batch failed to form");

      // Walk the batch serially: one setup cost, then per-item service.
      // The service time is modeled, so mid-flight expiry cannot be
      // observed by running the clock into the deadline (that would
      // reorder events against later arrivals). Expiry is decided
      // analytically instead: a doomed item scores under an
      // already-expired deadline (cooperative cancellation at the first
      // stage boundary) while the worker stays occupied until the
      // cancellation instant.
      const double slow = chaos.slowdown(sw, s_start);
      const std::uint64_t service_us = static_cast<std::uint64_t>(
          static_cast<double>(planned->degraded ? base.service_us_degraded
                                                : base.service_us_primary) *
          slow);
      std::uint64_t t_us = s_start + setup.batch_setup_us;
      eff.clear();
      for (const serving::WorkItem& item : planned->items) {
        if (item.expired_in_queue) {
          ++point.deadline_missed;
          eff.push_back(item.deadline_at_us);
          continue;
        }
        if (item.deadline_at_us <= t_us) {
          // Expires before its service begins (earlier batch items occupy
          // the worker past it): cancelled at zero cost.
          eff.push_back(s_start);
          continue;
        }
        const std::uint64_t fin = t_us + service_us;
        if (fin > item.deadline_at_us) {
          // Mid-flight miss: cancelled at the deadline instant.
          eff.push_back(s_start);
          t_us = item.deadline_at_us;
        } else {
          eff.push_back(item.deadline_at_us);
          run.total_latency_us += fin - item.enqueued_us;
          ++run.latency_n;
          t_us = fin;
        }
      }
      results.clear();
      server.complete_batch(sw, results, eff);
      free_us[sw] = t_us;
      run.makespan_us = std::max(run.makespan_us, t_us);

      for (const serving::ServedResult& r : results) {
        if (r.expired_in_queue) continue;  // counted at formation
        if (r.outcome.status == core::ScoreStatus::kDeadlineExceeded) {
          ++point.deadline_missed;
          continue;
        }
        if (chaos.result_lost(sw, r.request_id, s_start)) {
          ++point.results_lost;
          continue;
        }
        ++point.answered;
        answered_req[r.request_id] = true;
        answered_queue_us.push_back(r.queue_us);
        if (r.migrated) ++point.served_migrated;
        const std::size_t t = pop.order[r.request_id];
        switch (r.outcome.status) {
          case core::ScoreStatus::kOk:
            if (r.degraded) {
              ++point.scored_degraded;
              (pop.trials[t].is_attack ? attack_deg : legit_deg)
                  .push_back(r.outcome.score);
            } else {
              ++point.scored_primary;
              (pop.trials[t].is_attack ? attack_pri : legit_pri)
                  .push_back(r.outcome.score);
            }
            break;
          case core::ScoreStatus::kIndeterminate:
            ++point.indeterminate;
            break;
          case core::ScoreStatus::kError:
            ++point.errors;
            break;
          case core::ScoreStatus::kDeadlineExceeded:
            break;  // handled above
        }
      }
      continue;
    }

    // Next event is an arrival: route it to its session's shard.
    clock.set(arrival_us[next_arrival]);
    const std::size_t i = next_arrival;
    const std::size_t t = pop.order[i];
    const std::size_t s = i % setup.sessions;
    serving::ServerRequest req;
    req.va = &pop.trials[t].va;
    req.wearable = &pop.trials[t].wearable;
    req.segmenter = &pop.oracles[t];
    req.rng = pop.score_rng.fork(t);
    req.request_id = i;
    switch (server.submit(kSessionIdBase + s, handles[s], req)) {
      case serving::SubmitStatus::kQueued:
        ++point.admitted;
        break;
      case serving::SubmitStatus::kRejectedQueueFull:
        ++point.rejected;
        break;
      case serving::SubmitStatus::kRejectedTenantQuota:
        ++point.quota_rejected;
        break;
      case serving::SubmitStatus::kRejectedClosed:
        ++point.closed_rejected;
        break;
      case serving::SubmitStatus::kStaleSession:
        VIBGUARD_REQUIRE(false, "simulated session lost its handle");
    }
    ++next_arrival;
  }

  // Whatever is still queued when the bound tripped (a fleet with no live
  // workers left) is accounted explicitly, never dropped on the floor.
  for (std::size_t w = 0; w < server.workers(); ++w) {
    const serving::Shard& shard = server.shard(w);
    point.stranded += shard.depth();
    const serving::ShardStats stats = shard.stats();
    run.dequeued += stats.admission.dequeued;
    run.total_queue_us += stats.admission.total_queue_us;
    run.batches += stats.batches;
    run.batched_items += stats.batched_items;
    if (shard.breaker() != nullptr) {
      point.breaker_trips += shard.breaker()->trips();
    }
  }
  point.workers_end = server.active_worker_ids().size();

  if (supervisor.has_value()) {
    const serving::SupervisorStats& sup = supervisor->stats();
    point.failovers = sup.failovers;
    point.sessions_migrated += sup.sessions_migrated;
    point.steals = sup.steals;
    point.items_stolen = sup.items_stolen;
    point.quarantines = sup.quarantines;
    point.recoveries = sup.recoveries;
    point.escalations = sup.escalations;
    point.grows = sup.grows;
    point.flap_suppressed = sup.flap_suppressed;
    const auto& remediation = supervisor->remediation_log().events();
    if (!remediation.empty() && !setup.plan.empty()) {
      std::uint64_t fault_onset = UINT64_MAX;
      for (const faults::WorkerFault& fault : setup.plan.faults()) {
        fault_onset = std::min(fault_onset, fault.from_us);
      }
      const std::uint64_t first_action = remediation.front().at_us;
      if (first_action >= fault_onset) {
        point.remediate_us = first_action - fault_onset;
      }
    }
  }
  point.queue_age_p95_us = percentile_nearest_rank(answered_queue_us, 95.0);
  point.availability = num_requests > 0
                           ? static_cast<double>(point.answered) /
                                 static_cast<double>(num_requests)
                           : 0.0;
  point.post_failover_availability = std::numeric_limits<double>::quiet_NaN();
  if (any_failover) {
    std::size_t after = 0, answered_after = 0;
    for (std::size_t i = 0; i < num_requests; ++i) {
      if (arrival_us[i] <= last_failover_us) continue;
      ++after;
      if (answered_req[i]) ++answered_after;
    }
    if (after > 0) {
      point.post_failover_availability =
          static_cast<double>(answered_after) / static_cast<double>(after);
    }
  }
  point.eer_primary = eer_or_nan(attack_pri, legit_pri);
  point.eer_degraded = eer_or_nan(attack_deg, legit_deg);

  point.accounted =
      point.arrivals ==
      point.rejected + point.quota_rejected + point.closed_rejected +
          point.answered + point.deadline_missed + point.migration_dropped +
          point.results_lost + point.stranded;
  return run;
}

}  // namespace vibguard::eval
