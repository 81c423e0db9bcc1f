#include "stage_trace.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "attacks/attack.hpp"
#include "common/alloc_counter.hpp"
#include "core/stages.hpp"

namespace perfbench {

namespace v = vibguard;

namespace {

constexpr std::size_t kSync = 1;
constexpr std::size_t kVibCapture = 3;

std::size_t stage_index(const v::core::Stage* stage) {
  for (std::size_t s = 0; s < kStageNames.size(); ++s) {
    if (std::strcmp(stage->name(), kStageNames[s]) == 0) return s;
  }
  throw std::logic_error(std::string("unknown stage: ") + stage->name());
}

bool same_signal(const v::Signal& a, const v::Signal& b) {
  return a.size() == b.size() && a.sample_rate() == b.sample_rate() &&
         (a.empty() || std::memcmp(a.samples().data(), b.samples().data(),
                                   a.size() * sizeof(double)) == 0);
}

}  // namespace

/// Recomputes each capture through Wearable::cross_domain_capture_into and
/// compares it, and the rng it leaves behind, with the split's.
struct StageTracer::SplitCheck {
  v::Signal out;
  v::dsp::Scratch scratch;
  bool exact = true;
};

StageTracer::StageTracer(const v::core::DefenseSystem& system,
                         const Panel& panel)
    : system_(system),
      panel_(panel),
      sync_(system.config().sync),
      per_trial_(panel.size()) {}

void StageTracer::capture_split(v::core::PipelineContext& ctx,
                                SplitCheck* check) {
  // The body of VibrationCaptureStage::run (no user activity), one span per
  // sensor call: VA stream first, wearable stream second.
  v::core::Workspace& ws = *ctx.ws;
  const v::device::Wearable& wearable = *ctx.wearable;
  const v::Signal* inputs[2] = {ctx.cur_va, ctx.cur_wear};
  v::Signal* outputs[2] = {&ws.vib_va, &ws.vib_wear};
  for (int k = 0; k < 2; ++k) {
    const v::Rng rng_before = *ctx.rng;
    const auto t0 = BenchClock::now();
    wearable.speaker().render_into(*inputs[k], ws.scratch.rendered,
                                   ws.scratch.cwork);
    const auto t1 = BenchClock::now();
    wearable.accelerometer().capture_into(ws.scratch.rendered, *ctx.rng,
                                          *outputs[k], ws.scratch);
    const auto t2 = BenchClock::now();
    totals_.speaker_ns += ns_between(t0, t1);
    totals_.accel_ns += ns_between(t1, t2);
    if (check != nullptr) {
      v::Rng rng = rng_before;
      wearable.cross_domain_capture_into(*inputs[k], rng, check->out,
                                         check->scratch);
      v::Rng split_rng = *ctx.rng;
      check->exact = check->exact && same_signal(check->out, *outputs[k]) &&
                     rng() == split_rng();
    }
  }
  ctx.cur_va = &ws.vib_va;
  ctx.cur_wear = &ws.vib_wear;
  ctx.stage_samples_out = ws.vib_va.size() + ws.vib_wear.size();
}

double StageTracer::traced_score(std::size_t t, v::core::Workspace& ws,
                                 SplitCheck* check) {
  const auto& trial = panel_.trials[t];
  v::Rng rng = panel_.rngs[t];
  v::core::PipelineContext ctx;
  ctx.config = &system_.config();
  ctx.wearable = &system_.wearable();
  ctx.sync = &sync_;
  ctx.extractor = &system_.extractor();
  ctx.detector = &system_.detector();
  ctx.va_in = &trial.va;
  ctx.wear_in = &trial.wearable;
  ctx.segmenter = &panel_.segmenters[t];
  ctx.rng = &rng;
  ctx.ws = &ws;
  ws.quality.clear();
  ws.current_stage = "";
  ws.deadline_expired = false;

  const auto& capture = v::core::VibrationCaptureStage::instance();
  const auto start = BenchClock::now();
  for (const v::core::Stage* stage :
       v::core::stage_sequence(system_.config().mode)) {
    const std::size_t s = stage_index(stage);
    const auto t0 = BenchClock::now();
    if (stage == &capture) {
      capture_split(ctx, check);
    } else {
      stage->run(ctx);
    }
    const double ns = ns_between(t0, BenchClock::now());
    totals_.ns[s] += ns;
    if (s == kSync) per_trial_[t].sync_ns += ns;
    if (stage == &capture) per_trial_[t].vib_ns += ns;
    if (ctx.halted) {
      ctx.score = v::core::kIndeterminateScore;
      break;
    }
  }
  totals_.traced_ns += ns_between(start, BenchClock::now());
  return ctx.score;
}

v::core::ScoreOutcome StageTracer::measure(std::size_t t,
                                           v::core::Workspace& ws,
                                           Report& report) {
  const auto& trial = panel_.trials[t];
  const auto untraced = [&] {
    v::Rng rng = panel_.rngs[t];
    const std::uint64_t allocs = v::allocation_count();
    const auto t0 = BenchClock::now();
    auto out = system_.try_score(trial.va, trial.wearable,
                                 &panel_.segmenters[t], rng, ws);
    const double ns = ns_between(t0, BenchClock::now());
    totals_.allocations += v::allocation_count() - allocs;
    totals_.untraced_ns += ns;
    per_trial_[t].verdict_ns += ns;
    return out;
  };
  // Alternate which run goes first so neither always finds the trial's
  // inputs already in cache.
  traced_first_ = !traced_first_;
  double traced = 0.0;
  if (traced_first_) traced = traced_score(t, ws, nullptr);
  v::core::ScoreOutcome out = untraced();
  if (!traced_first_) traced = traced_score(t, ws, nullptr);

  const double expect =
      out.ok() ? out.score : v::core::kIndeterminateScore;
  if (!same_bits(traced, expect)) {
    report.fail("traced score differs from untraced on trial " +
                std::to_string(t));
  }
  totals_.ksamples += static_cast<double>(trial.va.size()) / 1000.0;
  ++totals_.verdicts;
  ++per_trial_[t].count;
  return out;
}

void StageTracer::verify(v::core::Workspace& ws, Report& report) {
  if (system_.config().user_activity.has_value()) {
    report.fail("the sensor split models no user activity");
    return;
  }
  SplitCheck check;
  for (std::size_t t = 0; t < panel_.size(); ++t) {
    check.exact = true;
    v::Rng rng = panel_.rngs[t];
    const auto out = system_.try_score(panel_.trials[t].va,
                                       panel_.trials[t].wearable,
                                       &panel_.segmenters[t], rng, ws);
    const double traced = traced_score(t, ws, &check);
    if (!check.exact) {
      report.fail("sensor split differs from cross_domain_capture_into on "
                  "trial " + std::to_string(t));
    }
    if (!same_bits(traced,
                   out.ok() ? out.score : v::core::kIndeterminateScore)) {
      report.fail("traced score differs from untraced on trial " +
                  std::to_string(t));
    }
  }
  // The verification pass is not part of the measurement.
  totals_ = StageTotals{};
  per_trial_.assign(panel_.size(), PerTrial{});
}

void StageTracer::run_for(double seconds, v::core::Workspace& ws,
                          Report& report) {
  const auto start = BenchClock::now();
  do {
    for (std::size_t t = 0; t < panel_.size(); ++t) {
      if (!measure(t, ws, report).ok()) ++totals_.failures;
    }
  } while (seconds_between(start, BenchClock::now()) < seconds);
}

double StageTracer::coverage() const {
  double stage_sum = 0.0;
  for (double ns : totals_.ns) stage_sum += ns;
  return totals_.untraced_ns > 0.0 ? stage_sum / totals_.untraced_ns : 0.0;
}

void StageTracer::add_metrics(Report& report) const {
  const StageTotals& tt = totals_;
  const double n = tt.verdicts > 0 ? static_cast<double>(tt.verdicts) : 1.0;
  double stage_sum = 0.0;
  for (double ns : tt.ns) stage_sum += ns;
  for (std::size_t s = 0; s < kStageNames.size(); ++s) {
    const std::string base = std::string("stage.") + kStageNames[s];
    report.add(base + ".ns", tt.ns[s] / n);
    report.add(base + ".share", stage_sum > 0.0 ? tt.ns[s] / stage_sum : 0.0);
  }
  const double ks = tt.ksamples > 0.0 ? tt.ksamples : 1.0;
  report.add("stage.sync.ns_per_ksample", tt.ns[kSync] / ks);
  report.add("stage.vib_capture.ns_per_ksample", tt.ns[kVibCapture] / ks);
  if (tt.untraced_ns > 0.0) {
    report.add("stage.sum_over_verdict", coverage());
    report.add("trace.overhead",
               (tt.traced_ns - tt.untraced_ns) / tt.untraced_ns);
  }
  report.add("sensors.speaker.ns", tt.speaker_ns / n);
  report.add("sensors.accel.ns", tt.accel_ns / n);
}

void StageTracer::print_per_trial() const {
  std::printf("%-5s %-8s %-8s %9s %10s %10s %11s\n", "trial", "truth",
              "attack", "samples", "sync_ms", "vib_ms", "verdict_ms");
  for (std::size_t t = 0; t < panel_.size(); ++t) {
    const PerTrial& p = per_trial_[t];
    if (p.count == 0) continue;
    const auto& trial = panel_.trials[t];
    const double c = static_cast<double>(p.count) * 1e6;
    std::printf("%-5zu %-8s %-8s %9zu %10.4f %10.4f %11.4f\n", t,
                trial.is_attack ? "attack" : "legit",
                trial.is_attack
                    ? v::attacks::attack_name(trial.attack_type).c_str()
                    : "-",
                trial.va.size(), p.sync_ns / c, p.vib_ns / c,
                p.verdict_ns / c);
  }
}

}  // namespace perfbench
