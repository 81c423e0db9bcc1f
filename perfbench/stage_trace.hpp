// Per-stage tracing from outside the program.
//
// StageTracer walks core::stage_sequence(mode) over a core::PipelineContext
// itself, with a steady-clock span around every Stage::run, and replaces
// the vib_capture stage by its two sensor calls (Speaker::render_into, then
// Accelerometer::capture_into) so each gets its own span. Every traced
// verdict is paired with an untraced DefenseSystem::try_score of the same
// trial and rng: the two scores must agree bit for bit, and the ratio of
// summed stage time to untraced verdict time says how much of a verdict
// the stage spans cover.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "core/pipeline.hpp"
#include "device/sync.hpp"

namespace perfbench {

inline constexpr std::array<const char*, 7> kStageNames = {
    "quality",  "sync",           "segment",  "vib_capture",
    "features", "audio_features", "correlate"};

/// Sums over every traced verdict.
struct StageTotals {
  std::array<double, kStageNames.size()> ns{};
  double speaker_ns = 0.0;
  double accel_ns = 0.0;
  double traced_ns = 0.0;    ///< whole traced pipeline walks
  double untraced_ns = 0.0;  ///< paired untraced try_score calls
  double ksamples = 0.0;     ///< VA input length, thousands of samples
  std::uint64_t verdicts = 0;
  std::uint64_t failures = 0;     ///< untraced verdicts that did not end ok
  std::uint64_t allocations = 0;  ///< inside the untraced verdicts
};

class StageTracer {
 public:
  StageTracer(const vibguard::core::DefenseSystem& system, const Panel& panel);

  /// Checks, untimed, that the sensor split reproduces
  /// Wearable::cross_domain_capture_into exactly on every panel trial and
  /// that every traced score equals its untraced score. Call it before any
  /// measurement: it clears the totals.
  void verify(vibguard::core::Workspace& ws, Report& report);

  /// One paired measurement of trial `t` (traced and untraced, in an order
  /// that alternates between calls). Returns the untraced outcome.
  vibguard::core::ScoreOutcome measure(std::size_t t,
                                       vibguard::core::Workspace& ws,
                                       Report& report);

  /// Paired measurements over whole panel passes until `seconds` elapse
  /// (at least one pass).
  void run_for(double seconds, vibguard::core::Workspace& ws, Report& report);

  const StageTotals& totals() const { return totals_; }

  /// Summed stage time over untraced verdict time.
  double coverage() const;

  /// Adds the stage.*, sensors.* and trace.* metrics.
  void add_metrics(Report& report) const;

  /// Prints one line per panel trial: its input length beside its mean
  /// sync, vib_capture and untraced verdict times.
  void print_per_trial() const;

 private:
  struct PerTrial {
    double sync_ns = 0.0;
    double vib_ns = 0.0;
    double verdict_ns = 0.0;
    std::uint64_t count = 0;
  };
  struct SplitCheck;

  double traced_score(std::size_t t, vibguard::core::Workspace& ws,
                      SplitCheck* check);
  void capture_split(vibguard::core::PipelineContext& ctx, SplitCheck* check);

  const vibguard::core::DefenseSystem& system_;
  const Panel& panel_;
  vibguard::device::SyncChannel sync_;
  StageTotals totals_;
  std::vector<PerTrial> per_trial_;
  bool traced_first_ = false;
};

}  // namespace perfbench
