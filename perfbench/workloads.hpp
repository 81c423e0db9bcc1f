// The workloads and the reference verdicts their outputs are checked
// against.
#pragma once

#include <vector>

#include "bench.hpp"
#include "core/pipeline.hpp"

namespace perfbench {

/// What DefenseSystem::try_score returns for one panel trial with its own
/// rng, computed outside every timed window.
struct Reference {
  vibguard::core::ScoreStatus status = vibguard::core::ScoreStatus::kOk;
  double score = 0.0;

  bool matches(const vibguard::core::ScoreOutcome& out) const {
    return out.status == status && same_bits(out.score, score);
  }
};

std::vector<Reference> reference_verdicts(
    const vibguard::core::DefenseSystem& system, const Panel& panel,
    vibguard::core::Workspace& ws);

/// Share of panel trials whose reference verdict (accept when ok and at or
/// above the threshold) matches the trial's ground truth.
double reference_accuracy(const std::vector<Reference>& refs,
                          const Panel& panel, double threshold);

/// `batch-mix` (kFull) and `audio-baseline` (kAudioBaseline): a closed
/// loop of try_score calls on one warm Workspace.
Report run_batch(const Options& opt, vibguard::core::DefenseMode mode);

/// The streaming layer's traced figures (stream.*): streams every panel
/// trial once through StreamingPipeline (kFull, exact-batch finalize) in
/// 1024-sample interleaved pushes, checking each finalized verdict against
/// its reference bit for bit.
void trace_streaming(const vibguard::core::DefenseSystem& system,
                     const Panel& panel, const std::vector<Reference>& refs,
                     Report& report);

/// `served-open`: open-loop Poisson arrivals into serving::Server.
Report run_served(const Options& opt);

}  // namespace perfbench
