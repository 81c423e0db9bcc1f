#include <cmath>
#include <string>

#include "stage_trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace v = vibguard;

std::vector<Reference> reference_verdicts(const v::core::DefenseSystem& system,
                                          const Panel& panel,
                                          v::core::Workspace& ws) {
  std::vector<Reference> refs;
  refs.reserve(panel.size());
  for (std::size_t t = 0; t < panel.size(); ++t) {
    v::Rng rng = panel.rngs[t];
    const auto out = system.try_score(panel.trials[t].va,
                                      panel.trials[t].wearable,
                                      &panel.segmenters[t], rng, ws);
    refs.push_back(Reference{out.status, out.score});
  }
  return refs;
}

double reference_accuracy(const std::vector<Reference>& refs,
                          const Panel& panel, double threshold) {
  std::size_t right = 0;
  for (std::size_t t = 0; t < panel.size(); ++t) {
    const bool accept = refs[t].status == v::core::ScoreStatus::kOk &&
                        refs[t].score >= threshold;
    if (accept != panel.trials[t].is_attack) ++right;
  }
  return static_cast<double>(right) / static_cast<double>(panel.size());
}

namespace {

struct BatchState {
  BatchState(Panel p, v::core::DefenseMode mode)
      : panel(std::move(p)), system([mode] {
          v::core::DefenseConfig cfg;
          cfg.mode = mode;
          return cfg;
        }()) {}

  v::core::ScoreOutcome verdict(std::size_t t) {
    v::Rng rng = panel.rngs[t];
    return system.try_score(panel.trials[t].va, panel.trials[t].wearable,
                            &panel.segmenters[t], rng, ws);
  }

  Panel panel;
  v::core::DefenseSystem system;
  v::core::Workspace ws;
};

// Largest allowed gap between summed stage time and untraced verdict time.
constexpr double kCoverageTolerance = 0.05;

}  // namespace

Report run_batch(const Options& opt, v::core::DefenseMode mode) {
  Report report(opt.trace);
  SetupTimes setup;
  auto st = timed_setup<BatchState>(opt, setup, [&](Panel panel) {
    auto s = std::make_unique<BatchState>(std::move(panel), mode);
    s->verdict(longest_trial(s->panel));
    return s;
  });
  if (add_setup_metrics(report, setup, opt)) return report;
  const auto refs = reference_verdicts(st->system, st->panel, st->ws);
  const double accuracy = reference_accuracy(
      refs, st->panel, st->system.config().detection_threshold);

  if (opt.trace) {
    StageTracer tracer(st->system, st->panel);
    tracer.verify(st->ws, report);
    tracer.run_for(opt.seconds, st->ws, report);
    tracer.add_metrics(report);
    const auto& tt = tracer.totals();
    report.attempted = tt.verdicts;
    report.failed = tt.failures;
    if (std::abs(tracer.coverage() - 1.0) > kCoverageTolerance) {
      report.fail("stage spans cover " + std::to_string(tracer.coverage()) +
                  " of the untraced verdict time");
    }
    report.add("allocs_per_verdict",
               static_cast<double>(tt.allocations) /
                   static_cast<double>(tt.verdicts));
    if (mode == v::core::DefenseMode::kFull) {
      trace_streaming(st->system, st->panel, refs, report);
    }
    tracer.print_per_trial();
    return report;
  }

  PerTrial verdict_ms(st->panel.size());
  std::uint64_t within_slo = 0;
  const auto start = BenchClock::now();
  for (std::size_t t = 0;
       seconds_between(start, BenchClock::now()) < opt.seconds;
       t = (t + 1) % st->panel.size()) {
    const auto t0 = BenchClock::now();
    const auto out = st->verdict(t);
    const double ms = ns_between(t0, BenchClock::now()) / 1e6;
    verdict_ms.add(t, ms);
    ++report.attempted;
    if (!out.ok()) {
      ++report.failed;
    } else if (ms <= kSloMs) {
      ++within_slo;
    }
    if (!refs[t].matches(out)) {
      report.fail("verdict differs from the reference on trial " +
                  std::to_string(t));
    }
  }
  add_memory_metric(report);
  // Throughput: one pass over the panel at each trial's fastest verdict.
  const Samples fastest = verdict_ms.minima();
  add_verdict_metrics(report, fastest,
                      static_cast<double>(fastest.size()) /
                          (fastest.sum() / 1e3),
                      accuracy, within_slo);
  return report;
}

}  // namespace perfbench
