#include "core/streaming.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/alloc_counter.hpp"
#include "common/error.hpp"

namespace vibguard::core {
namespace {

/// Fork label base for per-chunk capture rngs. Labeled by the absolute
/// capture-chunk index over the (segment-)stream, so the provisional
/// capture is a pure function of the block grid — invariant to how the
/// samples were chunked into pushes.
constexpr std::uint64_t kStreamBlockLabel = 0x53747242ULL;   // "StrB"

/// Fork label for the whole-prefix (coarse) checkpoint captures. Distinct
/// from the segment label so the two provisional evidence channels draw
/// independent capture-noise streams.
constexpr std::uint64_t kStreamCoarseLabel = 0x53747243ULL;  // "StrC"

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* stream_verdict_name(StreamVerdict verdict) {
  switch (verdict) {
    case StreamVerdict::kPending: return "pending";
    case StreamVerdict::kAttackEarly: return "attack_early";
    case StreamVerdict::kAcceptEarly: return "accept_early";
    case StreamVerdict::kFailedClosed: return "failed_closed";
    case StreamVerdict::kCompleted: return "completed";
  }
  VIBGUARD_UNREACHABLE();
}

namespace {

VibrationFeatureConfig provisional_features(const DefenseSystem& system,
                                            const StreamingConfig& config) {
  VibrationFeatureConfig f = system.config().features;
  f.window_size = config.provisional_window;
  f.hop = config.provisional_hop;
  return f;
}

}  // namespace

StreamingPipeline::StreamingPipeline(const DefenseSystem& system,
                                     StreamingConfig config)
    : system_(&system),
      config_(config),
      feats_va_(system.config().features),
      feats_wear_(system.config().features),
      prov_extractor_(provisional_features(system, config)) {
  VIBGUARD_REQUIRE(config_.block_samples > 0, "block size must be positive");
}

void StreamingPipeline::set_config(const StreamingConfig& config) {
  VIBGUARD_REQUIRE(!active_, "cannot reconfigure an active stream");
  VIBGUARD_REQUIRE(config.block_samples > 0, "block size must be positive");
  prov_extractor_ =
      VibrationFeatureExtractor(provisional_features(*system_, config));
  config_ = config;
}

void StreamingPipeline::begin(double sample_rate, const Segmenter* segmenter,
                              const Rng& rng, PipelineTrace* trace,
                              const Deadline* deadline) {
  VIBGUARD_REQUIRE(sample_rate > 0.0, "sample rate must be positive");
  VIBGUARD_REQUIRE(
      system_->config().mode != DefenseMode::kFull || segmenter != nullptr,
      "full mode requires a segmenter");
  VIBGUARD_REQUIRE(!config_.stop.enabled || config_.stop.confidence != nullptr,
                   "an enabled stopping rule needs a ConfidenceModel");
  active_ = true;
  finalized_ = false;
  segmenter_ = segmenter;
  trace_ = trace;
  deadline_ = deadline;
  base_rng_ = rng;
  rate_ = sample_rate;
  min_gap_ = min_gap_samples(system_->config().quality, sample_rate);
  run_start_ns_ = now_ns();

  va_buf_.reset(sample_rate);
  wear_buf_.reset(sample_rate);
  census_va_.reset();
  census_wear_.reset();

  delay_estimated_ = false;
  delay_s_ = 0.0;
  va_begin_ = 0;
  wear_begin_ = 0;
  blocks_done_ = 0;
  pearson_.reset();
  paired_frames_ = 0;
  coarse_frames_ = 0;
  verdict_ = StreamVerdict::kPending;
  provisional_ = kIndeterminateScore;
  coarse_ = kIndeterminateScore;
  posterior_ = 0.0;
  streak_side_ = 0;
  streak_len_ = 0;
  evaluated_this_push_ = false;
  feats_started_ = false;
  seg_va_.reset(sample_rate);
  seg_wear_.reset(sample_rate);
  seg_captured_ = 0;
  seg_chunks_ = 0;
  if (system_->config().mode == DefenseMode::kAudioBaseline) {
    audio_va_.reset(system_->config().audio_window,
                    system_->config().audio_hop);
    audio_wear_.reset(system_->config().audio_window,
                      system_->config().audio_hop);
  }
  if (trace_ != nullptr) trace_->begin_run();
}

void StreamingPipeline::record_push(const char* name, std::uint64_t start_ns,
                                    std::uint64_t allocs_before,
                                    std::size_t samples_in,
                                    std::size_t samples_out) {
  if (trace_ == nullptr) return;
  StageTrace record;
  record.name = name;
  record.start_us = (start_ns - run_start_ns_) / 1000;
  record.wall_us = (now_ns() - start_ns) / 1000;
  record.samples_in = samples_in;
  record.samples_out = samples_out;
  record.allocations = allocation_count() - allocs_before;
  trace_->stages.push_back(record);
}

StreamStatus StreamingPipeline::push(std::span<const double> va,
                                     std::span<const double> wearable) {
  VIBGUARD_REQUIRE(active_, "push before begin()");
  // A zero-length push is a pure no-op: no census update, no trace record,
  // no deadline or block work — the stream state is exactly as if the call
  // never happened (callers polling with empty frames must not perturb the
  // per-push accounting).
  if (va.empty() && wearable.empty()) return status();
  evaluated_this_push_ = false;

  // Ingest: buffer everything (the exact finalize pass needs the complete
  // signals regardless of what the provisional path does) and advance the
  // running quality census.
  {
    const std::uint64_t t0 = now_ns();
    const std::uint64_t allocs = allocation_count();
    va_buf_.append(va);
    wear_buf_.append(wearable);
    census_va_.update(va, min_gap_);
    census_wear_.update(wearable, min_gap_);
    record_push("stream_ingest", t0, allocs, va.size() + wearable.size(),
                va_buf_.size() + wear_buf_.size());
  }

  if (verdict_ == StreamVerdict::kPending) {
    // Fail closed mid-stream on the one defect that is both fatal under
    // every gating level and monotone (more data can never cure it):
    // non-finite contamination. Everything else (too-short, low-signal,
    // clipping ratios...) can only be judged on the complete capture.
    const std::uint32_t fatal =
        fatal_issue_mask(system_->config().quality.gate);
    if ((fatal & kIssueNonFinite) != 0 &&
        (census_va_.non_finite > 0 || census_wear_.non_finite > 0)) {
      verdict_ = StreamVerdict::kFailedClosed;
    }
  }

  if (verdict_ == StreamVerdict::kPending &&
      (deadline_ == nullptr || !deadline_->expired())) {
    const std::size_t before = blocks_done_;
    const std::uint64_t t0 = now_ns();
    const std::uint64_t allocs = allocation_count();
    process_blocks();
    if (blocks_done_ != before) {
      record_push("stream_score", t0, allocs,
                  (blocks_done_ - before) * config_.block_samples,
                  paired_frames_);
    }
  }
  return status();
}

StreamStatus StreamingPipeline::status() const {
  StreamStatus s;
  s.verdict = verdict_;
  s.provisional_score = provisional_;
  s.coarse_score = coarse_;
  s.posterior_attack = posterior_;
  s.blocks = blocks_done_;
  s.paired_frames = paired_frames_;
  s.coarse_frames = coarse_frames_;
  s.evaluated_this_push = evaluated_this_push_;
  return s;
}

void StreamingPipeline::process_blocks() {
  // One-shot delay estimate over the warm-up prefix: the batch pipeline
  // cross-correlates the whole pair, which a stream cannot do; a prefix
  // longer than the sync search window captures the same lag peak.
  if (!delay_estimated_) {
    const auto warmup = static_cast<std::size_t>(
        std::max(1.0, config_.sync_warmup_s * rate_));
    if (va_buf_.size() < warmup || wear_buf_.size() < warmup) return;
    prefix_va_.assign_slice(va_buf_, 0, warmup);
    prefix_wear_.assign_slice(wear_buf_, 0, warmup);
    delay_s_ = device::SyncChannel(system_->config().sync)
                   .estimate_delay_s(prefix_va_, prefix_wear_,
                                     scratch_.corr);
    // Same trim rule as SyncChannel::synchronize_into: positive shift drops
    // the samples the wearable missed from the VA front.
    const auto shift =
        static_cast<std::ptrdiff_t>(std::llround(delay_s_ * rate_));
    if (shift > 0) {
      va_begin_ = static_cast<std::size_t>(shift);
    } else if (shift < 0) {
      wear_begin_ = static_cast<std::size_t>(-shift);
    }
    delay_estimated_ = true;
    if (trace_ != nullptr) trace_->estimated_delay_s = delay_s_;
  }

  const std::size_t avail_va =
      va_buf_.size() > va_begin_ ? va_buf_.size() - va_begin_ : 0;
  const std::size_t avail_wear =
      wear_buf_.size() > wear_begin_ ? wear_buf_.size() - wear_begin_ : 0;
  const std::size_t blocks =
      std::min(avail_va, avail_wear) / config_.block_samples;
  while (blocks_done_ < blocks && verdict_ == StreamVerdict::kPending) {
    if (deadline_ != nullptr && deadline_->expired()) return;
    process_one_block(blocks_done_);
    ++blocks_done_;
    evaluate_rule();
  }
}

void StreamingPipeline::process_one_block(std::size_t block) {
  const DefenseConfig& cfg = system_->config();
  const std::size_t b = config_.block_samples;
  const std::size_t va0 = va_begin_ + block * b;
  const std::size_t wear0 = wear_begin_ + block * b;

  if (cfg.mode == DefenseMode::kAudioBaseline) {
    // Audio features stream directly: the batch stage is STFT + per-operand
    // max-normalization, and Pearson is invariant to per-operand scale.
    audio_va_.push(va_buf_.samples().subspan(va0, b));
    audio_wear_.push(wear_buf_.samples().subspan(wear0, b));
  } else {
    // Vibration path. First the streaming counterpart of SegmentStage
    // (kFull only): query the segmenter over the trimmed VA prefix up to
    // this block's end and append the parts of the block that sensitive
    // phonemes cover to the concatenated segment streams. The prefix end is
    // fixed by the block grid, so the appended content — and everything
    // downstream — stays invariant to the push schedule. Unlike the batch
    // stage there is no whole-command fallback for sparse segmentations: a
    // stream cannot know the final segment total, so uncovered content
    // simply never reaches the capture (the rule waits for more frames).
    if (cfg.mode == DefenseMode::kFull) {
      prefix_va_.assign_slice(va_buf_, va_begin_, va0 + b);
      segmenter_->segment_into(prefix_va_, va_begin_, ranges_);
      // Only this block's slice of the coverage is appended: ranges over a
      // growing prefix only ever extend at the tail (the oracle clamps
      // alignment spans to the prefix), so earlier blocks already appended
      // everything before lo0.
      const std::size_t lo0 = block * b;
      for (const SampleRange& r : ranges_) {
        const std::size_t lo = std::max(r.begin, lo0);
        const std::size_t hi = std::min(r.end, lo0 + b);
        if (lo >= hi) continue;
        seg_va_.append(va_buf_.samples().subspan(va_begin_ + lo, hi - lo));
        seg_wear_.append(
            wear_buf_.samples().subspan(wear_begin_ + lo, hi - lo));
      }
    } else {
      seg_va_.append(va_buf_.samples().subspan(va0, b));
      seg_wear_.append(wear_buf_.samples().subspan(wear0, b));
    }

    const device::Wearable& wearable = system_->wearable();
    if (cfg.mode == DefenseMode::kFull) {
      // Checkpoint evaluation: once at least one more block's worth of
      // segment content has accumulated, run the batch capture/feature/
      // correlate stages over the WHOLE segment prefix with a fixed rng
      // fork. Fragmenting the cross-domain capture into per-chunk calls
      // corrupts the 200 Hz vibration stream with per-chunk resampler
      // transients and destroys the provisional score's discrimination, so
      // the full-mode provisional path trades a little recomputation
      // (the segment prefix is short) for batch-grade capture semantics.
      // The fork label is constant, so each checkpoint replays the same
      // draw stream over a longer input — a pure function of the segment
      // prefix, invariant to the push schedule.
      if (seg_va_.size() > seg_captured_) {
        seg_captured_ = seg_va_.size();
        Rng rb = base_rng_.fork(kStreamBlockLabel);
        Workspace& ws = workspace_;
        if (cfg.user_activity.has_value()) {
          wearable.cross_domain_capture_into(seg_va_, *cfg.user_activity, rb,
                                             ws.vib_va, scratch_);
          wearable.cross_domain_capture_into(seg_wear_, *cfg.user_activity,
                                             rb, ws.vib_wear, scratch_);
        } else {
          wearable.cross_domain_capture_into(seg_va_, rb, ws.vib_va,
                                             scratch_);
          wearable.cross_domain_capture_into(seg_wear_, rb, ws.vib_wear,
                                             scratch_);
        }
        prov_extractor_.extract_into(ws.vib_va, ws.feat_va, scratch_);
        prov_extractor_.extract_into(ws.vib_wear, ws.feat_wear, scratch_);
        provisional_ = system_->detector().score(ws.feat_wear, ws.feat_va);
        paired_frames_ =
            std::min(ws.feat_va.frames(), ws.feat_wear.frames());
      }

      // Coarse checkpoint: the same capture/feature/correlate chain over
      // the WHOLE aligned prefix, without phoneme selection — the
      // vibration-baseline view of the stream. It is weaker evidence per
      // frame (the paper's motivation for segmentation), but it does not
      // have to wait for sensitive phonemes, so it is what makes exits
      // possible before the command's sensitive content has been spoken.
      {
        prefix_wear_.assign_slice(wear_buf_, wear_begin_, wear0 + b);
        Rng rc = base_rng_.fork(kStreamCoarseLabel);
        Workspace& ws = workspace_;
        if (cfg.user_activity.has_value()) {
          wearable.cross_domain_capture_into(prefix_va_, *cfg.user_activity,
                                             rc, ws.vib_va, scratch_);
          wearable.cross_domain_capture_into(prefix_wear_, *cfg.user_activity,
                                             rc, ws.vib_wear, scratch_);
        } else {
          wearable.cross_domain_capture_into(prefix_va_, rc, ws.vib_va,
                                             scratch_);
          wearable.cross_domain_capture_into(prefix_wear_, rc, ws.vib_wear,
                                             scratch_);
        }
        prov_extractor_.extract_into(ws.vib_va, ws.feat_va, scratch_);
        prov_extractor_.extract_into(ws.vib_wear, ws.feat_wear, scratch_);
        coarse_ = system_->detector().score(ws.feat_wear, ws.feat_va);
        coarse_frames_ =
            std::min(ws.feat_va.frames(), ws.feat_wear.frames());
      }
      return;
    }

    // Baseline vibration mode: consume the aligned stream in fixed-size
    // chunks, capturing each through the wearable's cross-domain channel
    // with a fork labeled by the absolute chunk index (VA stream first,
    // wearable second — the batch stage's draw order) and feeding the
    // 200 Hz vibration samples to the online feature accumulators.
    while (seg_va_.size() - seg_captured_ >= b) {
      block_va_.assign_slice(seg_va_, seg_captured_, seg_captured_ + b);
      block_wear_.assign_slice(seg_wear_, seg_captured_, seg_captured_ + b);
      Rng rb = base_rng_.fork(kStreamBlockLabel + seg_chunks_);
      if (cfg.user_activity.has_value()) {
        wearable.cross_domain_capture_into(block_va_, *cfg.user_activity, rb,
                                           vib_block_, scratch_);
      } else {
        wearable.cross_domain_capture_into(block_va_, rb, vib_block_,
                                           scratch_);
      }
      if (!feats_started_) {
        feats_va_.begin(vib_block_.sample_rate());
        feats_wear_.begin(vib_block_.sample_rate());
        feats_started_ = true;
      }
      feats_va_.push(vib_block_.samples());
      if (cfg.user_activity.has_value()) {
        wearable.cross_domain_capture_into(block_wear_, *cfg.user_activity,
                                           rb, vib_block_, scratch_);
      } else {
        wearable.cross_domain_capture_into(block_wear_, rb, vib_block_,
                                           scratch_);
      }
      feats_wear_.push(vib_block_.samples());
      seg_captured_ += b;
      ++seg_chunks_;
    }
  }

  // Fold the newly paired feature frames into the running Pearson moments
  // (wearable operand first, matching CorrelateStage's argument order —
  // Pearson is symmetric, but keeping the order makes comparisons easy).
  if (cfg.mode == DefenseMode::kAudioBaseline) {
    const std::size_t bins = audio_va_.bins();
    const std::size_t paired =
        std::min(audio_va_.frames(), audio_wear_.frames());
    for (; paired_frames_ < paired; ++paired_frames_) {
      pearson_.add(audio_wear_.row(paired_frames_),
                   audio_va_.row(paired_frames_), bins);
    }
  } else if (feats_started_) {
    const std::size_t bins = feats_va_.bins();
    const std::size_t paired =
        std::min(feats_va_.frames(), feats_wear_.frames());
    for (; paired_frames_ < paired; ++paired_frames_) {
      pearson_.add(feats_wear_.row(paired_frames_),
                   feats_va_.row(paired_frames_), bins);
    }
  }
}

namespace {

/// Log-odds of a posterior, clamped away from the infinities a saturated
/// calibration produces.
double clamped_logit(double p) {
  p = std::clamp(p, 1e-12, 1.0 - 1e-12);
  return std::log(p / (1.0 - p));
}

/// Evidence weight of a correlation estimated from `frames` feature
/// frames: frames / (frames + prior), in [0, 1).
double evidence_weight(std::size_t frames, double prior) {
  if (prior <= 0.0) return 1.0;
  return static_cast<double>(frames) / (static_cast<double>(frames) + prior);
}

}  // namespace

void StreamingPipeline::evaluate_rule() {
  if (system_->config().mode != DefenseMode::kFull) {
    // Baseline modes read the online Pearson accumulator; full mode's
    // provisional_/coarse_ were refreshed by the last block's checkpoints.
    const dsp::Correlation2dResult r = pearson_.value();
    provisional_ = r.degenerate ? kIndeterminateScore : r.value;
  }
  evaluated_this_push_ = true;

  // Fuse the available calibrated evidence channels: sum of per-channel
  // log-odds, each shrunk toward even by its frame count. With one channel
  // and no shrinkage this degenerates to posterior_attack(provisional_).
  const StoppingRule& rule = config_.stop;
  const auto channel_logit = [&rule](double p) {
    double l = clamped_logit(p);
    if (rule.max_channel_logit > 0.0) {
      l = std::clamp(l, -rule.max_channel_logit, rule.max_channel_logit);
    }
    return l;
  };
  double logit = 0.0;
  bool have_evidence = false;
  if (rule.confidence != nullptr && !is_indeterminate_score(provisional_)) {
    logit += evidence_weight(paired_frames_, rule.frames_prior) *
             channel_logit(rule.confidence->posterior_attack(provisional_));
    have_evidence = true;
  }
  if (rule.coarse_confidence != nullptr && !is_indeterminate_score(coarse_)) {
    logit += evidence_weight(coarse_frames_, rule.frames_prior) *
             channel_logit(
                 rule.coarse_confidence->posterior_attack(coarse_));
    have_evidence = true;
  }
  if (!have_evidence) return;
  posterior_ = 1.0 / (1.0 + std::exp(-logit));

  // Gate on the EVIDENCE horizon — the end of this boundary's block on the
  // VA timeline — not on how many samples happen to be buffered. When the
  // sync warm-up releases several backlogged blocks inside one push, the
  // early boundaries carry early horizons and fail the gate individually;
  // a burst of correlated tiny-prefix checkpoints can never satisfy the
  // consecutive-boundary requirement by itself.
  const double evidence_s =
      static_cast<double>(va_begin_ + blocks_done_ * config_.block_samples) /
      rate_;
  if (evidence_s < rule.min_stream_s ||
      std::max(paired_frames_, coarse_frames_) < rule.min_frames) {
    return;
  }
  // Streak bookkeeping runs whether or not the rule is armed, so a sweep
  // replaying recorded posteriors sees exactly what a live rule would do.
  const int side = posterior_ >= rule.attack_confidence
                       ? 1
                       : (1.0 - posterior_ >= rule.accept_confidence ? -1 : 0);
  if (side != 0 && side == streak_side_) {
    ++streak_len_;
  } else {
    streak_side_ = side;
    streak_len_ = side != 0 ? 1 : 0;
  }
  if (!rule.enabled) return;
  if (side != 0 && streak_len_ >= rule.consecutive) {
    verdict_ = side > 0 ? StreamVerdict::kAttackEarly
                        : StreamVerdict::kAcceptEarly;
  }
}

StreamOutcome StreamingPipeline::finalize() {
  if (!active_) {
    // Idempotent: a second finalize() returns the cached outcome of the
    // first without re-running the batch rescore or appending anything to
    // the trace (which would double-count PipelineStats trials downstream).
    VIBGUARD_REQUIRE(finalized_, "finalize before begin()");
    return last_outcome_;
  }
  active_ = false;
  finalized_ = true;

  StreamOutcome out;
  out.verdict =
      verdict_ == StreamVerdict::kPending ? StreamVerdict::kCompleted
                                          : verdict_;
  out.early_exit = verdict_ == StreamVerdict::kAttackEarly ||
                   verdict_ == StreamVerdict::kAcceptEarly;
  out.provisional_score = provisional_;
  out.coarse_score = coarse_;
  out.posterior_attack = posterior_;
  out.pushed_va_samples = va_buf_.size();
  out.blocks = blocks_done_;

  const QualityConfig& qcfg = system_->config().quality;
  const bool exact_pass =
      !out.early_exit && (config_.finalize == StreamingConfig::Finalize::
                              kExactBatch ||
                          verdict_ == StreamVerdict::kFailedClosed);
  if (exact_pass) {
    // The batch-compatibility pass: re-score the accumulated buffers with
    // an untouched copy of the begin()-time rng. Bit-identical to batch
    // try_score on the same signals for any push schedule. A failed-closed
    // stream takes this path too — the batch quality gate halts before any
    // expensive stage and produces the authoritative structured report.
    Rng rng = base_rng_;
    out.outcome = system_->try_score(
        va_buf_, wear_buf_, segmenter_, rng, workspace_,
        trace_ != nullptr ? &finalize_trace_ : nullptr, deadline_);
    if (trace_ != nullptr) {
      // Fold the batch pass's records and artifacts after the accumulated
      // per-push records (finalize_trace_ begin_run()s itself inside
      // score(), which is why the stream cannot hand it the user trace).
      trace_->append(finalize_trace_);
      trace_->estimated_delay_s = finalize_trace_.estimated_delay_s;
      trace_->num_ranges = finalize_trace_.num_ranges;
      trace_->segment_seconds = finalize_trace_.segment_seconds;
      trace_->quality = finalize_trace_.quality;
      std::swap(trace_->features_va, finalize_trace_.features_va);
      std::swap(trace_->features_wearable, finalize_trace_.features_wearable);
    }
    last_outcome_ = out;
    return out;
  }

  // Anytime outcome (early exit or kProvisional finalize): report the
  // incremental score with a quality report from the running census.
  out.outcome.quality.clear();
  out.outcome.quality.va = census_va_.finalize(va_buf_, qcfg);
  out.outcome.quality.wearable = census_wear_.finalize(wear_buf_, qcfg);
  out.outcome.quality.issues =
      out.outcome.quality.va.issues | out.outcome.quality.wearable.issues;
  apply_gate(qcfg, out.outcome.quality);
  if (is_indeterminate_score(provisional_)) {
    out.outcome.status = ScoreStatus::kIndeterminate;
    out.outcome.reason = out.outcome.quality.scoreable
                             ? "degenerate_features"
                             : out.outcome.quality.reason;
    out.outcome.score = kIndeterminateScore;
  } else {
    out.outcome.status = ScoreStatus::kOk;
    out.outcome.score = provisional_;
  }
  if (trace_ != nullptr) trace_->quality = out.outcome.quality;
  last_outcome_ = out;
  return out;
}

}  // namespace vibguard::core
