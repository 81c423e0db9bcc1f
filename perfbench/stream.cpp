#include <algorithm>
#include <span>
#include <string>

#include "core/streaming.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace v = vibguard;

namespace {

/// Samples per channel in one interleaved push.
constexpr std::size_t kPushSamples = 1024;

std::span<const double> chunk(std::span<const double> s, std::size_t off) {
  if (off >= s.size()) return {};
  return s.subspan(off, std::min(kPushSamples, s.size() - off));
}

}  // namespace

void trace_streaming(const v::core::DefenseSystem& system, const Panel& panel,
                     const std::vector<Reference>& refs, Report& report) {
  v::core::StreamingConfig cfg;
  cfg.finalize = v::core::StreamingConfig::Finalize::kExactBatch;
  v::core::StreamingPipeline pipeline(system, cfg);

  Samples push_ns;
  Samples finalize_ns;
  Samples blocks;
  Samples growth;
  std::vector<double> consuming;  // times of the block-consuming pushes
  // Position -1 is an untimed warm-up stream of the longest trial, which
  // grows the pipeline's buffers to their high-water size.
  for (long pos = -1; pos < static_cast<long>(panel.size()); ++pos) {
    const std::size_t t =
        pos < 0 ? longest_trial(panel) : static_cast<std::size_t>(pos);
    const auto& trial = panel.trials[t];
    const auto va = trial.va.samples();
    const auto wear = trial.wearable.samples();
    const std::size_t n = std::max(va.size(), wear.size());
    pipeline.begin(trial.va.sample_rate(), &panel.segmenters[t],
                   panel.rngs[t]);
    consuming.clear();
    double pushes = 0.0;
    for (std::size_t off = 0; off < n; off += kPushSamples) {
      const auto t0 = BenchClock::now();
      const auto status = pipeline.push(chunk(va, off), chunk(wear, off));
      const double ns = ns_between(t0, BenchClock::now());
      pushes += ns;
      // Earlier pushes only buffer the sync warm-up.
      if (status.blocks > 0) consuming.push_back(ns);
    }
    const auto t0 = BenchClock::now();
    const v::core::StreamOutcome out = pipeline.finalize();
    const double fin = ns_between(t0, BenchClock::now());
    if (out.early_exit || !refs[t].matches(out.outcome)) {
      report.fail("streamed verdict differs from try_score on trial " +
                  std::to_string(t));
    }
    if (pos < 0) continue;
    finalize_ns.add(fin);
    push_ns.add(pushes);
    blocks.add(static_cast<double>(out.blocks));
    if (!consuming.empty()) {
      const std::size_t q = std::max<std::size_t>(1, consuming.size() / 4);
      double first = 0.0;
      double last = 0.0;
      for (std::size_t i = 0; i < q; ++i) {
        first += consuming[i];
        last += consuming[consuming.size() - 1 - i];
      }
      if (first > 0.0) growth.add(last / first);
    }
  }
  report.add("stream.push_ns", push_ns.mean());
  report.add("stream.finalize_ns", finalize_ns.mean());
  report.add("stream.blocks", blocks.mean());
  report.add("stream.push_growth", growth.mean());
}

}  // namespace perfbench
