#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/alloc_counter.hpp"
#include "eval/sweep_population.hpp"
#include "serving/server.hpp"
#include "stage_trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace v = vibguard;

namespace {

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kSessions = 64;
constexpr std::uint32_t kTenants = 4;
constexpr std::uint64_t kDeadlineUs = 500'000;
constexpr double kRequestsPerS = 50.0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             BenchClock::now().time_since_epoch())
      .count();
}

/// One request's result, written once by the pump thread that served it.
struct Completion {
  std::int64_t done_ns = 0;
  v::core::ScoreStatus status = v::core::ScoreStatus::kOk;
  double score = 0.0;
  std::uint64_t queue_us = 0;
  std::size_t worker = 0;
  std::size_t batch_size = 0;
  std::uint64_t pump_allocations = 0;  ///< the pump thread's running count
};

v::serving::ServerConfig server_config() {
  v::serving::ServerConfig cfg;
  cfg.workers = kWorkers;
  cfg.deadline_us = kDeadlineUs;
  return cfg;
}

struct ServedState {
  ServedState(Panel p, std::size_t max_requests)
      : panel(std::move(p)),
        completions(max_requests),
        server(server_config(), v::SteadyClock::instance()) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      handles.push_back(server.open_session(
          s, static_cast<std::uint32_t>(s % kTenants)));
    }
    server.start_pumps([this](const v::serving::ServedResult& r) {
      Completion& c = completions.at(r.request_id);
      c.done_ns = now_ns();
      c.status = r.outcome.status;
      c.score = r.outcome.score;
      c.queue_us = r.queue_us;
      c.worker = r.worker;
      c.batch_size = r.batch_size;
      c.pump_allocations = v::allocation_count();
      completed.fetch_add(1, std::memory_order_release);
    });
  }

  v::serving::SubmitStatus submit(std::size_t trial, std::size_t session,
                                  std::uint64_t id) {
    v::serving::ServerRequest req;
    req.va = &panel.trials[trial].va;
    req.wearable = &panel.trials[trial].wearable;
    req.segmenter = &panel.segmenters[trial];
    req.rng = panel.rngs[trial];
    req.request_id = id;
    return server.submit(session, handles[session], req);
  }

  /// Submits one request and waits for its verdict (set-up and warm-up).
  void serve_one(std::size_t trial, std::size_t session) {
    const std::size_t before = completed.load(std::memory_order_acquire);
    if (submit(trial, session, next_id++) !=
        v::serving::SubmitStatus::kQueued) {
      throw std::runtime_error("warm-up request was not admitted");
    }
    while (completed.load(std::memory_order_acquire) == before) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  /// Pipeline time the workers have spent scoring, in µs.
  double busy_us() const {
    double us = 0.0;
    for (std::size_t w = 0; w < server.workers(); ++w) {
      for (const auto& stage : server.worker_pipeline_stats(w).stages) {
        us += static_cast<double>(stage.total_wall_us);
      }
    }
    return us;
  }

  // Declared before `server`, whose pumps write into them until it is
  // destroyed.
  Panel panel;
  std::vector<Completion> completions;  ///< indexed by request id
  std::atomic<std::size_t> completed{0};
  std::uint64_t next_id = 0;
  v::serving::Server server;
  std::vector<v::serving::SessionHandle> handles;
};

/// The open-loop schedule: `n` Poisson arrivals at kRequestsPerS, each
/// naming a panel trial and a session.
struct Arrival {
  std::uint64_t due_us;  ///< after the start of the timed loop
  std::size_t trial;
  std::size_t session;
};

std::vector<Arrival> schedule(std::uint64_t seed, std::size_t n,
                              std::size_t trials) {
  v::Rng rng(seed ^ 0x0be11a5eULL);
  const auto due_us = v::eval::poisson_arrivals(rng, 0, kRequestsPerS, n);
  std::vector<Arrival> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].due_us = due_us[i];
    out[i].trial = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(trials) - 1));
    out[i].session = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kSessions) - 1));
  }
  return out;
}

}  // namespace

Report run_served(const Options& opt) {
  Report report(opt.trace);
  const std::size_t n = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(kRequestsPerS * opt.seconds)));
  SetupTimes setup;
  auto st = timed_setup<ServedState>(opt, setup, [&](Panel panel) {
    const std::size_t warm = 1 + kWorkers * panel.size();
    auto s = std::make_unique<ServedState>(std::move(panel), warm + n);
    s->serve_one(longest_trial(s->panel), 0);
    return s;
  });
  if (add_setup_metrics(report, setup, opt)) return report;

  // References and accuracy from a DefenseSystem configured like the
  // server's workers.
  const v::core::DefenseSystem reference(st->server.config().defense);
  v::core::Workspace ws;
  const auto refs = reference_verdicts(reference, st->panel, ws);
  const double accuracy = reference_accuracy(
      refs, st->panel, reference.config().detection_threshold);

  // Warm every worker on every trial length: FFT plans are cached per
  // thread and per size.
  for (std::size_t w = 0; w < kWorkers; ++w) {
    std::size_t session = 0;
    while (session < kSessions && st->server.shard_of(session) != w) {
      ++session;
    }
    if (session == kSessions) continue;
    for (std::size_t t = 0; t < st->panel.size(); ++t) {
      st->serve_one(t, session);
    }
  }
  std::vector<std::uint64_t> warm_allocs(kWorkers, 0);
  for (std::uint64_t id = 0; id < st->next_id; ++id) {
    const Completion& c = st->completions[id];
    warm_allocs[c.worker] = std::max(warm_allocs[c.worker], c.pump_allocations);
  }
  const double busy_before = st->busy_us();

  // The timed open loop; this thread is the generator.
  const auto arrivals = schedule(opt.seed, n, st->panel.size());
  const std::uint64_t first_id = st->next_id;
  const std::size_t completed_before =
      st->completed.load(std::memory_order_acquire);
  std::vector<std::int64_t> due_ns(n);
  std::vector<std::int64_t> sent_ns(n);
  std::vector<bool> queued(n, false);
  Samples submit_ns;
  Samples lag_ms;
  std::size_t admitted = 0;
  const std::int64_t t0 = now_ns() + 2'000'000;
  for (std::size_t i = 0; i < n; ++i) {
    due_ns[i] = t0 + static_cast<std::int64_t>(arrivals[i].due_us) * 1000;
    std::this_thread::sleep_until(
        BenchClock::time_point(std::chrono::nanoseconds(due_ns[i])));
    sent_ns[i] = now_ns();
    const auto status =
        st->submit(arrivals[i].trial, arrivals[i].session, first_id + i);
    submit_ns.add(static_cast<double>(now_ns() - sent_ns[i]));
    lag_ms.add(static_cast<double>(sent_ns[i] - due_ns[i]) / 1e6);
    queued[i] = status == v::serving::SubmitStatus::kQueued;
    admitted += queued[i] ? 1 : 0;
  }
  const std::int64_t give_up = now_ns() + 5'000'000'000;
  while (st->completed.load(std::memory_order_acquire) <
             completed_before + admitted &&
         now_ns() < give_up) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  st->server.stop_pumps();  // joins: every completion is visible below
  add_memory_metric(report);

  PerTrial verdict_ms(st->panel.size());
  Samples queue_ms;
  Samples exec_ms;
  Samples batch_size;
  std::vector<std::size_t> per_worker(kWorkers, 0);
  std::vector<std::uint64_t> end_allocs = warm_allocs;
  std::uint64_t ok = 0;
  std::uint64_t within_slo = 0;
  std::uint64_t expired = 0;
  std::int64_t last_done = t0;
  report.attempted = n;
  for (std::size_t i = 0; i < n; ++i) {
    const Completion& c = st->completions[first_id + i];
    if (!queued[i] || c.done_ns == 0) {
      ++report.failed;
      continue;
    }
    const double ms = static_cast<double>(c.done_ns - due_ns[i]) / 1e6;
    verdict_ms.add(arrivals[i].trial, ms);
    queue_ms.add(static_cast<double>(c.queue_us) / 1e3);
    exec_ms.add(static_cast<double>(c.done_ns - sent_ns[i]) / 1e6 -
                static_cast<double>(c.queue_us) / 1e3);
    batch_size.add(static_cast<double>(c.batch_size));
    ++per_worker[c.worker];
    end_allocs[c.worker] = std::max(end_allocs[c.worker], c.pump_allocations);
    last_done = std::max(last_done, c.done_ns);
    if (c.status == v::core::ScoreStatus::kDeadlineExceeded) {
      ++expired;
      ++report.failed;
      continue;
    }
    const Reference& ref = refs[arrivals[i].trial];
    if (c.status != ref.status || !same_bits(c.score, ref.score)) {
      report.fail("served verdict differs from try_score on request " +
                  std::to_string(i));
    }
    if (c.status != v::core::ScoreStatus::kOk) {
      ++report.failed;
      continue;
    }
    ++ok;
    if (ms <= kSloMs) ++within_slo;
  }
  const double wall_s = static_cast<double>(last_done - t0) / 1e9;
  add_verdict_metrics(report, verdict_ms.minima(),
                      static_cast<double>(ok) / wall_s, accuracy, within_slo);

  if (opt.trace) {
    const std::size_t served = queue_ms.size();
    std::uint64_t allocations = 0;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      allocations += end_allocs[w] - warm_allocs[w];
    }
    const auto busiest =
        *std::max_element(per_worker.begin(), per_worker.end());
    report.add("serving.submit_ns.p50", submit_ns.percentile(50));
    report.add("serving.queue_ms.p50", queue_ms.percentile(50));
    report.add("serving.queue_ms.p99", queue_ms.percentile(99));
    report.add("serving.exec_ms.p50", exec_ms.percentile(50));
    report.add("serving.batch_size.mean", batch_size.mean());
    report.add("serving.rejected", static_cast<double>(n - admitted));
    report.add("serving.expired", static_cast<double>(expired));
    report.add("serving.worker_busy_frac",
               (st->busy_us() - busy_before) /
                   (static_cast<double>(kWorkers) * wall_s * 1e6));
    report.add("serving.imbalance",
               served > 0 ? static_cast<double>(busiest) * kWorkers /
                                static_cast<double>(served)
                          : 0.0);
    report.add("gen.lag_ms.p99", lag_ms.percentile(99));
    report.add("allocs_per_verdict",
               served > 0 ? static_cast<double>(allocations) /
                                static_cast<double>(served)
                          : 0.0);
    // The workers run the batch stages: one panel pass of stage spans
    // shows where a served verdict's execution time goes.
    StageTracer tracer(reference, st->panel);
    tracer.verify(ws, report);
    tracer.run_for(0.0, ws, report);
    tracer.add_metrics(report);
  }
  return report;
}

}  // namespace perfbench
