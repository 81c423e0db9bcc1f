#include "core/streaming.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "attacks/attack.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "core/quality.hpp"
#include "core/segmentation.hpp"
#include "core/trace.hpp"
#include "dsp/generate.hpp"
#include "dsp/stft.hpp"
#include "eval/experiment.hpp"
#include "eval/scenario.hpp"

namespace vibguard::core {
namespace {

eval::TrialRecordings make_trial(std::uint64_t seed, bool attack) {
  eval::ScenarioSimulator sim(eval::ScenarioConfig{}, seed);
  Rng rng(seed + 1);
  const auto user = speech::sample_speaker(speech::Sex::kMale, rng);
  const auto cmd = speech::command_by_text("turn on the lights");
  if (!attack) return sim.legitimate_trial(cmd, user);
  const auto adv = speech::sample_speaker(speech::Sex::kFemale, rng);
  return sim.attack_trial(attacks::AttackType::kReplay, cmd, user, adv);
}

/// Streams `trial` through `pipeline` with va frames of `va_frame` samples
/// and wearable frames of `wear_frame` samples (0 = push the whole channel
/// in one call), then finalizes.
StreamOutcome stream_with_schedule(StreamingPipeline& pipeline,
                                   const eval::TrialRecordings& trial,
                                   const Segmenter* segmenter, const Rng& rng,
                                   std::size_t va_frame,
                                   std::size_t wear_frame) {
  pipeline.begin(trial.va.sample_rate(), segmenter, rng);
  const auto frame_of = [](const Signal& s, std::size_t offset,
                           std::size_t frame) {
    const std::size_t begin = std::min(offset, s.size());
    const std::size_t end =
        frame == 0 ? s.size() : std::min(offset + frame, s.size());
    return s.samples().subspan(begin, end > begin ? end - begin : 0);
  };
  std::size_t va_off = 0;
  std::size_t wear_off = 0;
  while (va_off < trial.va.size() || wear_off < trial.wearable.size()) {
    const auto va = frame_of(trial.va, va_off, va_frame);
    const auto wear = frame_of(trial.wearable, wear_off, wear_frame);
    pipeline.push(va, wear);
    va_off += va.size();
    wear_off += wear.size();
    if (va.empty() && wear.empty()) break;
  }
  return pipeline.finalize();
}

class StreamingBitIdentityTest : public ::testing::TestWithParam<bool> {};

TEST_P(StreamingBitIdentityTest, MatchesBatchForAnyPushSchedule) {
  const bool attack = GetParam();
  const auto trial = make_trial(attack ? 101 : 100, attack);
  OracleSegmenter seg(trial.alignment, eval::reference_sensitive_set());
  DefenseSystem system((DefenseConfig()));

  Workspace workspace;
  Rng batch_rng(7);
  const ScoreOutcome batch = system.try_score(trial.va, trial.wearable, &seg,
                                              batch_rng, workspace);
  ASSERT_TRUE(batch.ok());

  StreamingPipeline pipeline(system);
  const struct {
    std::size_t va_frame;
    std::size_t wear_frame;
  } schedules[] = {
      {0, 0},       // both channels in one push
      {512, 512},   // equal mid-size frames
      {997, 1501},  // ragged, unequal frame sizes
      {1, 4096},    // single-sample va pushes against large wearable frames
  };
  for (const auto& s : schedules) {
    const StreamOutcome out = stream_with_schedule(
        pipeline, trial, &seg, Rng(7), s.va_frame, s.wear_frame);
    EXPECT_EQ(out.verdict, StreamVerdict::kCompleted);
    EXPECT_FALSE(out.early_exit);
    ASSERT_TRUE(out.outcome.ok());
    // Bitwise identity, not closeness: the exact finalize pass re-runs the
    // batch pipeline on the accumulated buffers with an untouched copy of
    // the begin()-time rng.
    EXPECT_EQ(out.outcome.score, batch.score)
        << "va_frame=" << s.va_frame << " wear_frame=" << s.wear_frame;
  }
}

INSTANTIATE_TEST_SUITE_P(LegitAndAttack, StreamingBitIdentityTest,
                         ::testing::Values(false, true));

TEST(StreamingPipelineTest, BaselineModesMatchBatchToo) {
  const auto trial = make_trial(102, false);
  for (const DefenseMode mode :
       {DefenseMode::kVibrationBaseline, DefenseMode::kAudioBaseline}) {
    DefenseConfig cfg;
    cfg.mode = mode;
    DefenseSystem system(cfg);
    Workspace workspace;
    Rng batch_rng(9);
    const ScoreOutcome batch = system.try_score(
        trial.va, trial.wearable, nullptr, batch_rng, workspace);
    ASSERT_TRUE(batch.ok());

    StreamingPipeline pipeline(system);
    const StreamOutcome out =
        stream_with_schedule(pipeline, trial, nullptr, Rng(9), 773, 2048);
    ASSERT_TRUE(out.outcome.ok()) << mode_name(mode);
    EXPECT_EQ(out.outcome.score, batch.score) << mode_name(mode);
  }
}

TEST(StreamingPipelineTest, ReusedPipelineStreamsBitIdentical) {
  const auto trial = make_trial(103, true);
  OracleSegmenter seg(trial.alignment, eval::reference_sensitive_set());
  DefenseSystem system((DefenseConfig()));
  StreamingPipeline pipeline(system);

  const StreamOutcome first =
      stream_with_schedule(pipeline, trial, &seg, Rng(11), 640, 640);
  const StreamOutcome second =
      stream_with_schedule(pipeline, trial, &seg, Rng(11), 640, 640);
  ASSERT_TRUE(first.outcome.ok());
  EXPECT_EQ(first.outcome.score, second.outcome.score);
  EXPECT_EQ(first.provisional_score, second.provisional_score);
  EXPECT_EQ(first.coarse_score, second.coarse_score);
}

TEST(StreamingPipelineTest, ProvisionalScoresInvariantToPushSchedule) {
  const auto trial = make_trial(104, false);
  OracleSegmenter seg(trial.alignment, eval::reference_sensitive_set());
  DefenseSystem system((DefenseConfig()));
  StreamingConfig cfg;
  cfg.finalize = StreamingConfig::Finalize::kProvisional;
  StreamingPipeline pipeline(system, cfg);

  const StreamOutcome whole =
      stream_with_schedule(pipeline, trial, &seg, Rng(13), 0, 0);
  const StreamOutcome ragged =
      stream_with_schedule(pipeline, trial, &seg, Rng(13), 811, 1283);
  // The provisional path consumes a fixed absolute block grid, so the
  // checkpoint scores never depend on how the samples arrived.
  EXPECT_EQ(whole.provisional_score, ragged.provisional_score);
  EXPECT_EQ(whole.coarse_score, ragged.coarse_score);
  EXPECT_EQ(whole.blocks, ragged.blocks);
}

// --- streaming component vs batch counterpart -----------------------------

TEST(StreamingCensusTest, MatchesBatchAssessChannel) {
  Rng rng(21);
  std::vector<double> samples(24000);
  for (double& s : samples) s = rng.gaussian() * 0.1;
  // Defects the census must fold identically: a long zero gap, a stuck
  // (constant, nonzero) run and a couple of non-finite samples.
  for (std::size_t i = 5000; i < 6200; ++i) samples[i] = 0.0;
  for (std::size_t i = 9000; i < 9800; ++i) samples[i] = 0.25;
  samples[15000] = std::numeric_limits<double>::quiet_NaN();
  samples[15001] = std::numeric_limits<double>::infinity();
  const Signal signal(samples, 16000.0);

  const QualityConfig cfg;
  const ChannelQuality batch = assess_channel(signal, cfg);
  const std::size_t gap = min_gap_samples(cfg, signal.sample_rate());

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{640}, samples.size()}) {
    StreamingCensus census;
    for (std::size_t off = 0; off < samples.size(); off += chunk) {
      const std::size_t n = std::min(chunk, samples.size() - off);
      census.update(std::span<const double>(samples).subspan(off, n), gap);
    }
    const ChannelQuality streamed = census.finalize(signal, cfg);
    EXPECT_EQ(streamed.samples, batch.samples) << "chunk=" << chunk;
    EXPECT_EQ(streamed.rms, batch.rms) << "chunk=" << chunk;
    EXPECT_EQ(streamed.peak, batch.peak) << "chunk=" << chunk;
    EXPECT_EQ(streamed.dc_offset, batch.dc_offset) << "chunk=" << chunk;
    EXPECT_EQ(streamed.clip_ratio, batch.clip_ratio) << "chunk=" << chunk;
    EXPECT_EQ(streamed.gap_ratio, batch.gap_ratio) << "chunk=" << chunk;
    EXPECT_EQ(streamed.longest_gap_s, batch.longest_gap_s)
        << "chunk=" << chunk;
    EXPECT_EQ(streamed.stuck_ratio, batch.stuck_ratio) << "chunk=" << chunk;
    EXPECT_EQ(streamed.non_finite, batch.non_finite) << "chunk=" << chunk;
    EXPECT_EQ(streamed.issues, batch.issues) << "chunk=" << chunk;
  }
}

TEST(StreamingStftTest, MatchesBatchPowerSpectrogram) {
  Rng rng(22);
  std::vector<double> samples(4096 + 113);
  for (double& s : samples) s = rng.gaussian();
  const Signal signal(samples, 16000.0);

  // (window, hop) pairs, including hops longer than the window: the
  // samples between frames are then skipped, possibly across pushes.
  const std::pair<std::size_t, std::size_t> grids[] = {
      {64, 16}, {16, 20}, {64, 100}};
  for (const auto& [window, hop] : grids) {
    dsp::Spectrogram batch;
    dsp::stft_power_into(signal, window, hop, batch);

    for (const std::size_t chunk :
         {std::size_t{1}, std::size_t{50}, std::size_t{1000}}) {
      dsp::StreamingStft stft;
      stft.reset(window, hop);
      for (std::size_t off = 0; off < samples.size(); off += chunk) {
        const std::size_t n = std::min(chunk, samples.size() - off);
        stft.push(std::span<const double>(samples).subspan(off, n));
      }
      const std::string where = "window=" + std::to_string(window) +
                                " hop=" + std::to_string(hop) +
                                " chunk=" + std::to_string(chunk);
      ASSERT_EQ(stft.frames(), batch.frames()) << where;
      ASSERT_EQ(stft.bins(), batch.bins()) << where;
      for (std::size_t f = 0; f < batch.frames(); ++f) {
        for (std::size_t b = 0; b < batch.bins(); ++b) {
          // Each frame is windowed and transformed exactly once, in the
          // same order as the batch transform — bitwise identical.
          ASSERT_EQ(stft.row(f)[b], batch.at(f, b))
              << where << " frame=" << f << " bin=" << b;
        }
      }
    }
  }
}

TEST(StreamingPearsonTest, MatchesCorrelation2d) {
  Rng rng(23);
  const std::size_t frames = 40;
  const std::size_t bins = 33;
  dsp::Spectrogram a(frames, bins, 1.0, 1.0);
  dsp::Spectrogram b(frames, bins, 1.0, 1.0);
  for (std::size_t f = 0; f < frames; ++f) {
    for (std::size_t k = 0; k < bins; ++k) {
      a.at(f, k) = rng.gaussian();
      b.at(f, k) = 0.6 * a.at(f, k) + 0.4 * rng.gaussian();
    }
  }
  const dsp::Correlation2dResult batch = dsp::correlation_2d_ex(a, b);
  ASSERT_FALSE(batch.degenerate);

  dsp::StreamingPearson pearson;
  for (std::size_t f = 0; f < frames; ++f) {
    pearson.add(&a.values()[f * bins], &b.values()[f * bins], bins);
  }
  const dsp::Correlation2dResult streamed = pearson.value();
  ASSERT_FALSE(streamed.degenerate);
  EXPECT_EQ(pearson.count(), frames * bins);
  // Chunked accumulation reorders the moment sums, so equality is to
  // rounding, not bitwise.
  EXPECT_NEAR(streamed.value, batch.value, 1e-9);

  dsp::StreamingPearson empty;
  EXPECT_TRUE(empty.value().degenerate);
}

// --- stopping rule --------------------------------------------------------

/// Constant-posterior model: drives the rule deterministically.
class FixedConfidence final : public ConfidenceModel {
 public:
  explicit FixedConfidence(double p) : p_(p) {}
  double posterior_attack(double) const override { return p_; }

 private:
  double p_;
};

StreamingConfig rule_config(const ConfidenceModel* model) {
  StreamingConfig cfg;
  cfg.stop.enabled = true;
  cfg.stop.confidence = model;
  cfg.stop.coarse_confidence = model;
  cfg.finalize = StreamingConfig::Finalize::kProvisional;
  return cfg;
}

TEST(StoppingRuleTest, ConfidentAttackEvidenceExitsEarly) {
  const auto trial = make_trial(105, true);
  OracleSegmenter seg(trial.alignment, eval::reference_sensitive_set());
  DefenseSystem system((DefenseConfig()));
  const FixedConfidence always_attack(1.0);
  StreamingPipeline pipeline(system, rule_config(&always_attack));

  pipeline.begin(trial.va.sample_rate(), &seg, Rng(31));
  StreamStatus st;
  std::size_t pushed = 0;
  for (; pushed < trial.va.size(); pushed += 1024) {
    const std::size_t n = std::min<std::size_t>(1024, trial.va.size() - pushed);
    st = pipeline.push(trial.va.samples().subspan(pushed, n),
                       trial.wearable.samples().subspan(
                           pushed, std::min<std::size_t>(
                                       n, trial.wearable.size() - pushed)));
    if (st.verdict != StreamVerdict::kPending) break;
  }
  EXPECT_EQ(st.verdict, StreamVerdict::kAttackEarly);
  EXPECT_LT(pushed, trial.va.size());  // exited before the stream ended
  EXPECT_GE(st.posterior_attack, pipeline.config().stop.attack_confidence);

  const StreamOutcome out = pipeline.finalize();
  EXPECT_TRUE(out.early_exit);
  EXPECT_EQ(out.verdict, StreamVerdict::kAttackEarly);
  // An early exit reports the provisional evidence, not a batch score.
  EXPECT_EQ(out.outcome.score, out.provisional_score);
}

TEST(StoppingRuleTest, ConfidentLegitEvidenceExitsAcceptSide) {
  const auto trial = make_trial(106, false);
  OracleSegmenter seg(trial.alignment, eval::reference_sensitive_set());
  DefenseSystem system((DefenseConfig()));
  const FixedConfidence never_attack(0.0);
  StreamingPipeline pipeline(system, rule_config(&never_attack));

  const StreamOutcome out =
      stream_with_schedule(pipeline, trial, &seg, Rng(33), 1024, 1024);
  EXPECT_EQ(out.verdict, StreamVerdict::kAcceptEarly);
  EXPECT_TRUE(out.early_exit);
}

TEST(StoppingRuleTest, DisabledRuleNeverExits) {
  const auto trial = make_trial(107, true);
  OracleSegmenter seg(trial.alignment, eval::reference_sensitive_set());
  DefenseSystem system((DefenseConfig()));
  const FixedConfidence always_attack(1.0);
  StreamingConfig cfg = rule_config(&always_attack);
  cfg.stop.enabled = false;
  StreamingPipeline pipeline(system, cfg);

  const StreamOutcome out =
      stream_with_schedule(pipeline, trial, &seg, Rng(35), 1024, 1024);
  EXPECT_EQ(out.verdict, StreamVerdict::kCompleted);
  EXPECT_FALSE(out.early_exit);
  // The posterior is still tracked for status consumers.
  EXPECT_GE(out.posterior_attack, 0.9);
}

TEST(StoppingRuleTest, MinStreamGateBlocksInstantVerdicts) {
  const auto trial = make_trial(108, true);
  OracleSegmenter seg(trial.alignment, eval::reference_sensitive_set());
  DefenseSystem system((DefenseConfig()));
  const FixedConfidence always_attack(1.0);
  StreamingConfig cfg = rule_config(&always_attack);
  cfg.stop.min_stream_s = 10.0;  // longer than any trial
  StreamingPipeline pipeline(system, cfg);

  const StreamOutcome out =
      stream_with_schedule(pipeline, trial, &seg, Rng(37), 1024, 1024);
  EXPECT_EQ(out.verdict, StreamVerdict::kCompleted);
  EXPECT_FALSE(out.early_exit);
}

TEST(StreamingPipelineTest, FailsClosedOnNonFiniteSamples) {
  const auto trial = make_trial(109, false);
  OracleSegmenter seg(trial.alignment, eval::reference_sensitive_set());
  DefenseSystem system((DefenseConfig()));
  StreamingPipeline pipeline(system);

  pipeline.begin(trial.va.sample_rate(), &seg, Rng(41));
  pipeline.push(trial.va.samples().first(4096),
                trial.wearable.samples().first(4096));
  const double bad[3] = {0.1, std::numeric_limits<double>::quiet_NaN(), 0.2};
  const StreamStatus st = pipeline.push(bad, {});
  EXPECT_EQ(st.verdict, StreamVerdict::kFailedClosed);

  const StreamOutcome out = pipeline.finalize();
  EXPECT_EQ(out.verdict, StreamVerdict::kFailedClosed);
  EXPECT_FALSE(out.outcome.ok());
  EXPECT_EQ(out.outcome.status, ScoreStatus::kIndeterminate);
}

// --- instrumentation ------------------------------------------------------

TEST(StreamingPipelineTest, SecondFinalizeIsIdempotent) {
  const auto trial = make_trial(111, false);
  OracleSegmenter seg(trial.alignment, eval::reference_sensitive_set());
  DefenseSystem system((DefenseConfig()));
  StreamingPipeline pipeline(system);

  PipelineTrace trace;
  pipeline.begin(trial.va.sample_rate(), &seg, Rng(51), &trace);
  pipeline.push(trial.va.samples(), trial.wearable.samples());
  const StreamOutcome first = pipeline.finalize();
  ASSERT_TRUE(first.outcome.ok());
  const std::size_t stages_after_first = trace.stages.size();

  // A second finalize() before the next begin() must return the cached
  // outcome: no batch re-score, no new trace records — so a caller that
  // add()s the trace into PipelineStats counts this trial exactly once.
  const StreamOutcome second = pipeline.finalize();
  EXPECT_EQ(second.outcome.score, first.outcome.score);
  EXPECT_EQ(second.outcome.status, first.outcome.status);
  EXPECT_EQ(second.verdict, first.verdict);
  EXPECT_EQ(second.provisional_score, first.provisional_score);
  EXPECT_EQ(second.pushed_va_samples, first.pushed_va_samples);
  EXPECT_EQ(trace.stages.size(), stages_after_first);

  PipelineStats stats;
  stats.add(trace);
  EXPECT_EQ(stats.commands, 1u);

  // The pipeline stays reusable after the repeated finalize.
  pipeline.begin(trial.va.sample_rate(), &seg, Rng(51));
  pipeline.push(trial.va.samples(), trial.wearable.samples());
  const StreamOutcome again = pipeline.finalize();
  EXPECT_EQ(again.outcome.score, first.outcome.score);
}

TEST(StreamingPipelineTest, RejectsNonPowerOfTwoProvisionalWindow) {
  DefenseSystem system((DefenseConfig()));
  StreamingConfig cfg;
  cfg.provisional_window = 400;
  EXPECT_THROW(StreamingPipeline(system, cfg), InvalidArgument);
  StreamingPipeline pipeline(system);
  EXPECT_THROW(pipeline.set_config(cfg), InvalidArgument);
}

TEST(StreamingPipelineTest, ZeroLengthPushIsNoOp) {
  const auto trial = make_trial(112, false);
  OracleSegmenter seg(trial.alignment, eval::reference_sensitive_set());
  DefenseSystem system((DefenseConfig()));

  // Reference stream: no empty pushes.
  StreamingPipeline reference(system);
  const StreamOutcome expected =
      stream_with_schedule(reference, trial, &seg, Rng(53), 2048, 2048);
  ASSERT_TRUE(expected.outcome.ok());

  // Same schedule with empty pushes interleaved everywhere: the empties
  // must not advance any carried census/STFT/pairing state, and must not
  // clobber the evaluated_this_push report of the preceding real push.
  StreamingPipeline pipeline(system);
  pipeline.begin(trial.va.sample_rate(), &seg, Rng(53));
  pipeline.push({}, {});  // before any data
  std::size_t off = 0;
  while (off < trial.va.size() || off < trial.wearable.size()) {
    const auto chunk = [&](const Signal& s) {
      const std::size_t begin = std::min(off, s.size());
      const std::size_t end = std::min(off + 2048, s.size());
      return s.samples().subspan(begin, end - begin);
    };
    const StreamStatus after_real = pipeline.push(chunk(trial.va),
                                                  chunk(trial.wearable));
    const StreamStatus after_empty = pipeline.push({}, {});
    EXPECT_EQ(after_empty.blocks, after_real.blocks);
    EXPECT_EQ(after_empty.paired_frames, after_real.paired_frames);
    EXPECT_EQ(after_empty.coarse_frames, after_real.coarse_frames);
    EXPECT_EQ(after_empty.provisional_score, after_real.provisional_score);
    EXPECT_EQ(after_empty.evaluated_this_push, after_real.evaluated_this_push);
    off += 2048;
  }
  const StreamOutcome out = pipeline.finalize();
  ASSERT_TRUE(out.outcome.ok());
  EXPECT_EQ(out.outcome.score, expected.outcome.score);
  EXPECT_EQ(out.provisional_score, expected.provisional_score);
  EXPECT_EQ(out.pushed_va_samples, expected.pushed_va_samples);
  EXPECT_EQ(out.blocks, expected.blocks);
}

TEST(StreamingTraceTest, TraceAppendConcatenatesStageRecords) {
  PipelineTrace a;
  a.stages.push_back(StageTrace{"x", 0, 5, 10, 10, 0});
  PipelineTrace b;
  b.stages.push_back(StageTrace{"y", 1, 7, 20, 20, 1});
  b.stages.push_back(StageTrace{"z", 2, 9, 30, 30, 2});
  a.append(b);
  ASSERT_EQ(a.stages.size(), 3u);
  EXPECT_STREQ(a.stages[1].name, "y");
  EXPECT_STREQ(a.stages[2].name, "z");
}

TEST(StreamingTraceTest, StatsSeparateCallsFromTrials) {
  const auto trial = make_trial(110, false);
  OracleSegmenter seg(trial.alignment, eval::reference_sensitive_set());
  DefenseSystem system((DefenseConfig()));
  StreamingPipeline pipeline(system);

  PipelineStats stats;
  for (int run = 0; run < 2; ++run) {
    PipelineTrace trace;
    pipeline.begin(trial.va.sample_rate(), &seg, Rng(43), &trace);
    for (std::size_t off = 0; off < trial.va.size(); off += 2048) {
      const std::size_t n =
          std::min<std::size_t>(2048, trial.va.size() - off);
      // The wearable channel is the shorter one here; once it runs out,
      // push empty wearable frames rather than reading past its end.
      const std::size_t woff = std::min(off, trial.wearable.size());
      pipeline.push(trial.va.samples().subspan(off, n),
                    trial.wearable.samples().subspan(
                        woff, std::min<std::size_t>(
                                  n, trial.wearable.size() - woff)));
    }
    pipeline.finalize();
    stats.add(trace);
  }

  EXPECT_EQ(stats.commands, 2u);
  const PipelineStats::StageStats* ingest = nullptr;
  for (const auto& s : stats.stages) {
    if (s.name == "stream_ingest") ingest = &s;
  }
  ASSERT_NE(ingest, nullptr);
  // The ingest stage ran once per push — many calls, but exactly one trial
  // per add()ed trace. Before the calls/trials split, per-stage means were
  // diluted by the call count.
  EXPECT_EQ(ingest->trials, 2u);
  EXPECT_GT(ingest->calls, ingest->trials);
  EXPECT_GT(ingest->mean_calls_per_trial(), 1.0);

  PipelineStats other = stats;
  other.merge(stats);
  for (const auto& s : other.stages) {
    if (s.name == "stream_ingest") {
      EXPECT_EQ(s.trials, 4u);
      EXPECT_EQ(s.calls, 2 * ingest->calls);
    }
  }
}

}  // namespace
}  // namespace vibguard::core
