// Streaming/anytime scoring: the incremental push counterpart of the batch
// stage graph (core/pipeline.hpp).
//
// The batch pipeline scores a trial only after the full command pair is
// captured. StreamingPipeline instead accepts interleaved audio frames of
// any size — down to single samples — and maintains, per push:
//
//   - a running signal-quality census (core/quality.hpp StreamingCensus)
//     that can fail the stream closed the moment a fatal, monotone defect
//     (non-finite samples) appears;
//   - a one-shot delay estimate over a warm-up prefix, standing in for the
//     batch pipeline's whole-signal synchronization;
//   - incremental sensitive-phoneme segmentation: in kFull mode each block
//     is intersected with the segmenter's ranges over the prefix seen so
//     far and only the covered content is appended to a concatenated
//     segment stream (the streaming counterpart of SegmentStage);
//   - the segment stream (or, in baseline modes, the aligned sample stream
//     itself) is consumed in fixed-size chunks by the cross-domain capture
//     and online vibration-feature accumulators
//     (core/vibration_features.hpp StreamingVibrationFeatures);
//   - an incremental 2-D Pearson over the paired feature frames
//     (dsp/stft.hpp StreamingPearson).
//
// After each push the pipeline exposes a *provisional* score — and, in
// kFull mode, a second *coarse* score: the correlation of the whole aligned
// prefix without phoneme selection. The segment score is the stronger
// discriminator but has to wait for sensitive phonemes to be spoken; the
// coarse score is available from the sync warm-up onward for every trial.
// Given calibrated ConfidenceModels the two are fused into one posterior
// attack probability (log-odds summed, each shrunk by its frame count). A
// stopping rule turns that posterior into an anytime verdict ("confident
// it's an attack after 40% of the frames"), letting DefenseSession and the
// serving layer exit early.
//
// The batch-compatibility invariant: every pushed sample is also buffered,
// and finalize() in the default kExactBatch mode re-scores the accumulated
// buffers through DefenseSystem::try_score with an untouched copy of the
// begin()-time rng. A stream run to completion is therefore bit-identical
// to batch scoring of the same signals for ANY push schedule — the
// provisional path influences only *when* a verdict can be rendered, never
// what the final score is. (Several batch steps are inherently global —
// full-signal sync, the zero-phase high-pass, normalize-by-max, phoneme
// segmentation — so the provisional score is an approximation on a slightly
// different scale; eval/confidence calibrates both scales onto posteriors.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/signal.hpp"
#include "core/pipeline.hpp"
#include "core/quality.hpp"
#include "core/trace.hpp"
#include "core/vibration_features.hpp"
#include "dsp/scratch.hpp"
#include "dsp/stft.hpp"

namespace vibguard::core {

/// Maps a (provisional or batch) correlation score to a calibrated
/// posterior probability that the trial is an attack. Implemented by
/// eval::ScoreCalibration; abstract here because core cannot depend on eval.
class ConfidenceModel {
 public:
  virtual ~ConfidenceModel() = default;

  /// P(attack | score), in [0, 1]. Must be monotone non-increasing in the
  /// score (higher correlation = more legitimate) so that thresholding the
  /// posterior is equivalent to thresholding the score.
  virtual double posterior_attack(double score) const = 0;
};

/// Early-exit policy evaluated at block boundaries.
///
/// The posterior it thresholds combines up to two calibrated evidence
/// channels (sensitive-segment + whole-prefix correlation, see
/// StreamStatus), each with its log-odds shrunk toward even by
/// frames / (frames + frames_prior) — a correlation estimated from few
/// feature frames carries proportionally less weight, so a confident
/// verdict early in the stream requires either strong agreement of both
/// channels or overwhelming evidence in one.
struct StoppingRule {
  bool enabled = false;

  /// Never exit before this much of the stream (seconds of VA audio) and
  /// this many feature frames (in the better-populated evidence channel)
  /// have been seen — guards against verdicts from the first block or two.
  double min_stream_s = 0.25;
  std::size_t min_frames = 8;

  /// Log-odds shrinkage prior (in frames). 0 disables shrinkage.
  double frames_prior = 4.0;

  /// Per-channel log-odds cap applied before fusion (0 disables). The
  /// calibrations are Gaussian fits whose tails are not trustworthy: one
  /// channel mapping a moderately unusual score to a posterior of 1-1e-6
  /// must not be able to overrule the other channel's disagreement. With
  /// the cap, a fused posterior beyond sigmoid(cap) requires *both*
  /// channels on the same side — corroboration, not tail extrapolation.
  double max_channel_logit = 3.0;

  /// Number of consecutive confident same-side block boundaries required
  /// before exiting. With the per-channel cap, a fused posterior beyond
  /// sigmoid(max_channel_logit) already demands both channels agree, so a
  /// single corroborated boundary is trustworthy and 1 is the default;
  /// raise it (with the confidence thresholds lowered) to trade verdict
  /// latency for robustness on denser block grids, where adjacent
  /// checkpoints share most of their evidence and err together.
  std::size_t consecutive = 1;

  /// Posterior thresholds: exit as attack when posterior_attack >= the
  /// first, as accept when (1 - posterior_attack) >= the second.
  double attack_confidence = 0.97;
  double accept_confidence = 0.97;

  /// Calibrated posterior source for the provisional (segment) score
  /// (borrowed; required when enabled).
  const ConfidenceModel* confidence = nullptr;

  /// Optional second calibration for the whole-prefix (coarse) score in
  /// kFull mode; when null that evidence channel is ignored.
  const ConfidenceModel* coarse_confidence = nullptr;
};

/// Where a stream currently stands (or ended).
enum class StreamVerdict {
  kPending,      ///< still accumulating; no early verdict yet
  kAttackEarly,  ///< stopping rule fired on the attack side
  kAcceptEarly,  ///< stopping rule fired on the accept side
  kFailedClosed, ///< mid-stream quality failure (non-finite samples)
  kCompleted,    ///< finalize() ran without an early exit
};

/// Human-readable verdict name.
const char* stream_verdict_name(StreamVerdict verdict);

/// Per-push status report.
struct StreamStatus {
  StreamVerdict verdict = StreamVerdict::kPending;

  /// Incremental correlation over everything paired so far;
  /// kIndeterminateScore until the first evaluation (or while degenerate).
  /// In kFull mode this is the sensitive-segment evidence (the streaming
  /// counterpart of the batch pipeline's phoneme-selected correlation).
  double provisional_score = kIndeterminateScore;

  /// kFull only: correlation of the whole aligned prefix (no phoneme
  /// selection — the vibration-baseline view). Less discriminative than
  /// the segment score but available from the sync warm-up onward for
  /// every trial, so it powers the earliest exits.
  double coarse_score = kIndeterminateScore;

  /// Combined posterior over the attached evidence channels (see
  /// StoppingRule); 0 until a model is attached and evidence evaluated.
  double posterior_attack = 0.0;

  std::size_t blocks = 0;         ///< aligned blocks consumed so far
  std::size_t paired_frames = 0;  ///< segment-evidence feature frames
  std::size_t coarse_frames = 0;  ///< whole-prefix evidence frames
  bool evaluated_this_push = false;
};

/// Result of finalize().
struct StreamOutcome {
  /// The authoritative structured outcome. For a completed kExactBatch
  /// stream this is bit-identical to DefenseSystem::try_score on the same
  /// signals; for an early exit it carries the provisional score.
  ScoreOutcome outcome;

  StreamVerdict verdict = StreamVerdict::kCompleted;
  bool early_exit = false;

  /// The provisional path's last scores/posterior (also meaningful for
  /// completed streams: it is what the anytime layer believed).
  double provisional_score = kIndeterminateScore;
  double coarse_score = kIndeterminateScore;
  double posterior_attack = 0.0;

  std::size_t pushed_va_samples = 0;
  std::size_t blocks = 0;
};

struct StreamingConfig {
  /// Aligned block size (samples at the VA rate) the provisional path
  /// consumes at a time. The block grid is fixed by absolute sample count,
  /// so provisional scores are invariant to the push schedule.
  std::size_t block_samples = 2048;

  /// Prefix length for the one-shot delay estimate. Must exceed the sync
  /// cross-correlation search window for the estimate to be meaningful.
  double sync_warmup_s = 0.32;

  /// STFT granularity of the provisional full-mode feature checkpoints.
  /// The batch extractor's 64/16 windows need 0.32 s of segment content
  /// per frame — too slow for anytime verdicts. The provisional path is
  /// calibrated on its own scale (eval/confidence), so it can trade
  /// frequency resolution for time resolution; the batch finalize pass is
  /// untouched. Other extractor knobs (high-pass, crop) follow the batch
  /// feature config. The window must be a power of two >= 2.
  std::size_t provisional_window = 16;
  std::size_t provisional_hop = 4;

  StoppingRule stop;

  /// What finalize() does when no early exit happened:
  ///   kExactBatch  — re-score the accumulated buffers through the batch
  ///                  pipeline (bit-identical to DefenseSystem::score);
  ///   kProvisional — report the incremental score as-is (cheap; used by
  ///                  benchmarks and the stream-sweep's anytime arm).
  enum class Finalize { kExactBatch, kProvisional };
  Finalize finalize = Finalize::kExactBatch;
};

/// The incremental push pipeline. Reusable: begin() resets all carried
/// state while retaining heap capacity, so a warm pipeline streams
/// allocation-free at steady state. Not thread-safe; one instance per
/// scoring thread.
class StreamingPipeline {
 public:
  /// `system` is borrowed and must outlive the pipeline.
  explicit StreamingPipeline(const DefenseSystem& system,
                             StreamingConfig config = {});

  const StreamingConfig& config() const { return config_; }

  /// Replaces the streaming configuration. Must not be called between
  /// begin() and finalize(); takes effect at the next begin().
  void set_config(const StreamingConfig& config);

  /// Starts a new stream. Both channels must share `sample_rate` (the batch
  /// pipeline requires this too). `rng` is copied: one untouched copy seeds
  /// the exact finalize pass (bit-identity with batch), and per-block forks
  /// drive the provisional captures. `segmenter` is required for kFull mode
  /// finalize. `trace`, when non-null, accumulates one record per push plus
  /// the finalize pass's batch stage records; `deadline` is checked at push
  /// and block boundaries.
  void begin(double sample_rate, const Segmenter* segmenter, const Rng& rng,
             PipelineTrace* trace = nullptr,
             const Deadline* deadline = nullptr);

  /// Pushes one interleaved frame pair (either span may be empty — the
  /// channels need not advance in lockstep; when both are empty the call is
  /// a pure no-op that leaves census/trace/block state untouched). Returns
  /// the post-push status.
  StreamStatus push(std::span<const double> va,
                    std::span<const double> wearable);

  StreamStatus push_va(std::span<const double> va) { return push(va, {}); }
  StreamStatus push_wearable(std::span<const double> wearable) {
    return push({}, wearable);
  }

  /// Current status without pushing.
  StreamStatus status() const;

  /// Ends the stream and renders the final outcome (see StreamOutcome).
  /// Idempotent: calling it again before the next begin() returns the same
  /// cached outcome without re-running the batch rescore or re-appending
  /// trace records. The pipeline stays reusable: call begin() for the next
  /// stream.
  StreamOutcome finalize();

  std::size_t pushed_va_samples() const { return va_buf_.size(); }
  std::size_t pushed_wearable_samples() const { return wear_buf_.size(); }

 private:
  void process_blocks();
  void process_one_block(std::size_t block);
  void evaluate_rule();
  void record_push(const char* name, std::uint64_t start_ns,
                   std::uint64_t allocs_before, std::size_t samples_in,
                   std::size_t samples_out);

  const DefenseSystem* system_;
  StreamingConfig config_;

  // Per-stream state (reset by begin()).
  bool active_ = false;
  bool finalized_ = false;        ///< a finalize() outcome is cached
  StreamOutcome last_outcome_;    ///< returned by repeated finalize()
  const Segmenter* segmenter_ = nullptr;
  PipelineTrace* trace_ = nullptr;
  const Deadline* deadline_ = nullptr;
  Rng base_rng_;  ///< untouched begin()-time copy; forked per block
  double rate_ = 0.0;
  std::size_t min_gap_ = 1;
  std::uint64_t run_start_ns_ = 0;

  Signal va_buf_;    ///< everything pushed on the VA channel
  Signal wear_buf_;  ///< everything pushed on the wearable channel
  StreamingCensus census_va_;
  StreamingCensus census_wear_;

  // Provisional path.
  bool delay_estimated_ = false;
  double delay_s_ = 0.0;
  std::size_t va_begin_ = 0;    ///< alignment trim (front of VA)
  std::size_t wear_begin_ = 0;  ///< alignment trim (front of wearable)
  std::size_t blocks_done_ = 0;
  StreamingVibrationFeatures feats_va_;
  StreamingVibrationFeatures feats_wear_;
  VibrationFeatureExtractor prov_extractor_;  ///< checkpoint features
  dsp::StreamingStft audio_va_;    ///< audio-baseline feature path
  dsp::StreamingStft audio_wear_;
  dsp::StreamingPearson pearson_;
  std::size_t paired_frames_ = 0;
  std::size_t coarse_frames_ = 0;
  StreamVerdict verdict_ = StreamVerdict::kPending;
  double provisional_ = kIndeterminateScore;
  double coarse_ = kIndeterminateScore;
  double posterior_ = 0.0;
  int streak_side_ = 0;        ///< last confident side: +1 attack, -1 accept
  std::size_t streak_len_ = 0; ///< consecutive boundaries on streak_side_
  bool evaluated_this_push_ = false;
  bool feats_started_ = false;

  // Reusable scratch (capacity retained across streams).
  Signal prefix_va_;
  Signal prefix_wear_;
  Signal block_va_;
  Signal block_wear_;
  Signal vib_block_;
  std::vector<SampleRange> ranges_;  ///< per-block segmentation query
  Signal seg_va_;       ///< concatenated capture-ready content (VA)
  Signal seg_wear_;     ///< concatenated capture-ready content (wearable)
  std::size_t seg_captured_ = 0;  ///< samples of seg_*_ consumed by capture
  std::size_t seg_chunks_ = 0;    ///< capture chunks consumed (fork labels)
  dsp::Scratch scratch_;
  Workspace workspace_;           ///< finalize batch pass storage
  PipelineTrace finalize_trace_;  ///< finalize batch pass records
};

}  // namespace vibguard::core
