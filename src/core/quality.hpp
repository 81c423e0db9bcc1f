// Signal-quality assessment and gating for the defense pipeline.
//
// Real captures arrive degraded: clipped VA microphones, dropped
// accelerometer samples, stuck sensors, DC-offset drift, truncated or
// NaN/Inf-contaminated recordings. This module measures those conditions on
// the raw input pair before any expensive processing, producing a
// structured QualityReport, and — depending on the configured gate — halts
// the pipeline with an indeterminate outcome instead of scoring garbage.
//
// The assessment is deliberately deterministic, allocation-free and
// mutation-free: it reads the inputs, draws no randomness, and writes only
// the report, so enabling it never perturbs the bit-identical scores of
// healthy trials.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "common/signal.hpp"

namespace vibguard::core {

/// Bit flags for the individual quality problems a channel or a pair can
/// exhibit. A QualityReport carries the union of the flags raised.
enum QualityIssue : std::uint32_t {
  kIssueNonFinite = 1u << 0,  ///< NaN/Inf samples present
  kIssueClipping = 1u << 1,   ///< too many samples at the saturation rails
  kIssueGaps = 1u << 2,       ///< too much of the capture is zero-run gaps
  kIssueDcOffset = 1u << 3,   ///< mean dominates the signal energy
  kIssueLowSignal = 1u << 4,  ///< RMS below the noise floor (dead channel)
  kIssueTooShort = 1u << 5,   ///< capture shorter than the minimum duration
  kIssueStuck = 1u << 6,      ///< longest constant run suggests stuck sensor
  kIssueDesync = 1u << 7,     ///< estimated delay pinned at the search edge
};

/// "clipping+gaps" style summary of an issue mask ("none" when 0).
std::string quality_issue_names(std::uint32_t issues);

/// Per-channel quality measurements.
struct ChannelQuality {
  std::size_t samples = 0;
  double duration_s = 0.0;
  double rms = 0.0;          ///< over the finite samples
  double peak = 0.0;         ///< over the finite samples
  double dc_offset = 0.0;    ///< mean of the finite samples
  double clip_ratio = 0.0;   ///< fraction of samples at >= clip level
  double gap_ratio = 0.0;    ///< fraction of samples inside long zero runs
  double longest_gap_s = 0.0;
  double stuck_ratio = 0.0;  ///< longest constant (nonzero) run / samples
  std::size_t non_finite = 0;
  std::uint32_t issues = 0;  ///< QualityIssue flags raised on this channel
};

/// Quality gate and detection thresholds.
struct QualityConfig {
  /// How the assessment affects pipeline execution.
  ///   kOff        — measure and report only; never halt.
  ///   kPermissive — halt only on conditions that make any score
  ///                 meaningless (non-finite samples, dead channel,
  ///                 too-short capture); flag the rest. The default: it
  ///                 keeps every trial a clean pipeline can score.
  ///   kStrict     — halt on every raised issue (high-assurance
  ///                 deployments that prefer re-requesting the command).
  enum class Gate { kOff, kPermissive, kStrict };

  Gate gate = Gate::kPermissive;

  /// Minimum duration (seconds) of each capture, and of the synchronized
  /// overlap, for the trial to be scoreable at all.
  double min_duration_s = 0.05;

  /// A sample counts as clipped when |x| >= clip_level_fraction * peak.
  double clip_level_fraction = 0.985;
  double max_clip_ratio = 0.20;

  /// A zero run counts as a gap when it lasts at least min_gap_s.
  double min_gap_s = 0.005;
  double max_gap_ratio = 0.30;

  /// DC flag when |mean| > max_dc_fraction * rms.
  double max_dc_fraction = 0.5;

  /// Dead-channel floor (captures are unit-scale doubles).
  double min_rms = 1e-7;

  /// Stuck-sensor flag when the longest constant nonzero run exceeds this
  /// fraction of the capture.
  double max_stuck_ratio = 0.25;
};

/// Structured result of assessing one (VA, wearable) recording pair.
struct QualityReport {
  ChannelQuality va;
  ChannelQuality wearable;

  std::uint32_t issues = 0;  ///< union of all raised flags
  std::uint32_t fatal = 0;   ///< issues the gate treats as unscoreable
  bool scoreable = true;     ///< fatal == 0

  /// Static description of the dominant fatal issue ("ok" when scoreable).
  const char* reason = "ok";

  /// Clears the report for the next run (no deallocation).
  void clear();

  /// One-line human-readable summary.
  std::string summary() const;
};

/// Carried state of the per-channel quality census, for push pipelines.
///
/// The batch assess_channel walks a signal once, strictly left to right;
/// StreamingCensus is that same walk with its loop state lifted out, so
/// feeding a signal in chunks of any size — down to single samples —
/// accumulates bit-identical state to one whole-signal pass (assess_channel
/// itself is implemented on top of it). The peak-relative clipping census
/// needs the final peak and therefore lives in finalize(), which re-reads
/// the buffered signal the streaming caller already holds.
///
/// Most samples are plain: finite, |x| > 1e-9 and unequal to the sample
/// before. Once the census has just seen a plain sample, blocks of four
/// plain samples go through a dispatched vector scan
/// (dsp::simd::Ops::census_plain) that only adds them to the sums, in
/// sample order, and raises the peak; the first block holding an event
/// (a non-finite sample, a zero or a repeat) takes the per-sample body.
/// The clipping census is a vector count (Ops::count_clipped). The sums
/// stay strictly left to right at every level, so rms and dc_offset keep
/// the per-sample walk's bits.
struct StreamingCensus {
  // Moments over the finite samples.
  double sum = 0.0;
  double sum_sq = 0.0;
  double peak = 0.0;
  std::size_t finite_count = 0;
  std::size_t non_finite = 0;
  std::size_t total = 0;

  // Zero-run (gap) census.
  std::size_t zero_run = 0;
  std::size_t gap_samples = 0;
  std::size_t longest_gap = 0;

  // Constant-run (stuck sensor) census.
  std::size_t const_run = 1;
  std::size_t longest_const = 0;
  double prev = 0.0;
  bool have_prev = false;

  void reset() { *this = StreamingCensus{}; }

  /// Folds `samples` into the census. `min_gap_samples` is the zero-run
  /// length that counts as a gap (from QualityConfig::min_gap_s at the
  /// channel's sample rate); it must stay constant across a stream.
  void update(std::span<const double> samples, std::size_t min_gap_samples);

  /// Closes the trailing runs and applies the thresholds, producing the
  /// same ChannelQuality a batch assess_channel of the whole signal would.
  /// `signal` must be the concatenation of everything update() saw (the
  /// clipping census needs a second pass against the final peak); const —
  /// the census itself stays usable for further update() calls.
  ChannelQuality finalize(const Signal& signal,
                          const QualityConfig& cfg) const;
};

/// The zero-run length counting as a gap at `sample_rate` (shared by the
/// batch and streaming census paths).
std::size_t min_gap_samples(const QualityConfig& cfg, double sample_rate);

/// Measures one channel against `cfg`, raising per-channel issue flags.
/// Pure: no allocation, no mutation of `signal`, no randomness.
ChannelQuality assess_channel(const Signal& signal, const QualityConfig& cfg);

/// Assesses both channels and applies the gate, filling `report` in place.
void assess_pair(const Signal& va, const Signal& wearable,
                 const QualityConfig& cfg, QualityReport& report);

/// The subset of issue flags the configured gate treats as fatal.
std::uint32_t fatal_issue_mask(QualityConfig::Gate gate);

/// Re-evaluates `report.fatal` / `scoreable` / `reason` after new flags were
/// added to `report.issues` (used by later stages that raise e.g. kDesync).
void apply_gate(const QualityConfig& cfg, QualityReport& report);

}  // namespace vibguard::core
