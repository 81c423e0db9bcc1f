#include "core/session.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace vibguard::core {
namespace {

/// Retry forks are labeled from this base ("Retr") so they are decorrelated
/// from every other consumer of the command's rng stream.
constexpr std::uint64_t kRetryForkLabel = 0x52657472ULL;

double nan_score() { return std::numeric_limits<double>::quiet_NaN(); }

/// Audit-log phrasing of an unscoreable outcome.
std::string outcome_note(const ScoreOutcome& outcome) {
  if (outcome.status == ScoreStatus::kError) {
    return std::string("error at stage ") + outcome.reason + ": " +
           outcome.error;
  }
  return outcome.reason;
}

/// A fresh audit-log entry for the next command.
SessionEvent new_event(std::size_t index, const std::string& label) {
  SessionEvent event;
  event.index = index;
  event.label = label;
  event.score = nan_score();
  return event;
}

}  // namespace

const char* verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::kAccepted: return "accepted";
    case Verdict::kAttackDetected: return "attack_detected";
    case Verdict::kWearableAbsent: return "wearable_absent";
    case Verdict::kIndeterminate: return "indeterminate";
  }
  VIBGUARD_UNREACHABLE();
}

DefenseSession::DefenseSession(DefenseConfig config, SessionPolicy policy)
    : system_(std::move(config)), streaming_(system_), policy_(policy) {}

void DefenseSession::settle(SessionEvent& event, const ScoreOutcome& outcome) {
  if (!outcome.ok()) {
    event.verdict = Verdict::kIndeterminate;
    event.score = nan_score();
    event.note = outcome_note(outcome);
    ++stats_.indeterminate;
    return;
  }
  event.score = outcome.score;
  if (outcome.score < system_.config().detection_threshold) {
    event.verdict = Verdict::kAttackDetected;
    ++stats_.attacks_detected;
  } else {
    event.verdict = Verdict::kAccepted;
    ++stats_.accepted;
  }
}

void DefenseSession::retry_and_settle(SessionEvent& event,
                                      ScoreOutcome outcome, const Signal& va,
                                      const Signal& wearable,
                                      const Segmenter* segmenter,
                                      const Rng& base) {
  // An unscoreable command models as a re-request: retry on a decorrelated
  // fork of the command's entry stream. Forking from `base` (not from the
  // advanced caller stream) keeps sequential and batch processing
  // bit-identical.
  for (std::size_t attempt = 1;
       !outcome.ok() && attempt <= policy_.max_retries; ++attempt) {
    Rng retry_rng = base.fork(kRetryForkLabel + attempt);
    outcome = system_.try_score(va, wearable, segmenter, retry_rng,
                                workspace_, &trace_);
    pipeline_stats_.add(trace_);
    ++stats_.retries;
    event.attempts = attempt + 1;
  }
  settle(event, outcome);
}

SessionEvent DefenseSession::process(
    const std::string& label, const Signal& va_recording,
    const std::optional<Signal>& wearable_recording,
    const Segmenter* segmenter, Rng& rng) {
  SessionEvent event = new_event(log_.size(), label);
  if (!wearable_recording.has_value()) {
    // Threat-model policy (Sec. II): "Our defense system rejects voice
    // commands at the VA if the wearable device is absent."
    event.verdict = Verdict::kWearableAbsent;
    ++stats_.wearable_absent;
  } else {
    const Rng base = rng;  // entry-point stream, for retry forks
    const ScoreOutcome outcome =
        system_.try_score(va_recording, *wearable_recording, segmenter, rng,
                          workspace_, &trace_);
    pipeline_stats_.add(trace_);
    retry_and_settle(event, outcome, va_recording, *wearable_recording,
                     segmenter, base);
  }
  ++stats_.processed;
  log_.push_back(event);
  return event;
}

SessionEvent DefenseSession::process_streaming(
    const std::string& label, const Signal& va_recording,
    const std::optional<Signal>& wearable_recording, const Segmenter* segmenter,
    Rng& rng, const StreamingConfig& streaming, std::size_t frame_samples) {
  VIBGUARD_REQUIRE(frame_samples > 0, "frame size must be positive");
  SessionEvent event = new_event(log_.size(), label);

  if (!wearable_recording.has_value()) {
    event.verdict = Verdict::kWearableAbsent;
    ++stats_.wearable_absent;
    ++stats_.processed;
    log_.push_back(event);
    return event;
  }

  streaming_.set_config(streaming);
  streaming_.begin(va_recording.sample_rate(), segmenter, rng, &trace_);
  const Signal& wear = *wearable_recording;
  const std::size_t total =
      std::max(va_recording.size(), wear.size());
  std::size_t offset = 0;
  while (offset < total) {
    const auto frame_of = [&](const Signal& s) {
      const std::size_t begin = std::min(offset, s.size());
      const std::size_t end = std::min(offset + frame_samples, s.size());
      return s.samples().subspan(begin, end - begin);
    };
    const StreamStatus st =
        streaming_.push(frame_of(va_recording), frame_of(wear));
    offset += frame_samples;
    // The stopping rule (or a mid-stream quality failure) rendered the
    // verdict: the remaining frames are never consumed.
    if (st.verdict != StreamVerdict::kPending) break;
  }
  const StreamOutcome out = streaming_.finalize();
  pipeline_stats_.add(trace_);

  event.early_exit = out.early_exit;
  event.stream_fraction =
      std::min(1.0, static_cast<double>(out.pushed_va_samples) /
                        static_cast<double>(va_recording.size()));
  if (out.early_exit) {
    // The anytime layer's calibrated posterior made the call; the
    // provisional score is on its own scale, so the threshold test does
    // not apply.
    ++stats_.early_exits;
    event.score = out.provisional_score;
    event.note = stream_verdict_name(out.verdict);
    if (out.verdict == StreamVerdict::kAttackEarly) {
      event.verdict = Verdict::kAttackDetected;
      ++stats_.attacks_detected;
    } else {
      event.verdict = Verdict::kAccepted;
      ++stats_.accepted;
    }
  } else {
    settle(event, out.outcome);
  }
  ++stats_.processed;
  log_.push_back(event);
  return event;
}

std::vector<SessionEvent> DefenseSession::process_batch(
    std::span<const SessionRequest> requests) {
  // Score the wearable-present commands in one batch pass, then emit the
  // audit-log entries in request order.
  std::vector<ScoreRequest> to_score;
  to_score.reserve(requests.size());
  for (const SessionRequest& req : requests) {
    VIBGUARD_REQUIRE(req.va != nullptr, "session request needs a VA signal");
    if (req.wearable == nullptr) continue;
    to_score.push_back(
        ScoreRequest{req.va, req.wearable, req.segmenter, req.rng});
  }
  std::vector<ScoreOutcome> outcomes(to_score.size());
  system_.score_batch(to_score, std::span<ScoreOutcome>(outcomes), workspace_,
                      &trace_, &pipeline_stats_);

  std::vector<SessionEvent> events;
  events.reserve(requests.size());
  std::size_t next_scored = 0;
  for (const SessionRequest& req : requests) {
    SessionEvent event = new_event(log_.size(), req.label);
    if (req.wearable == nullptr) {
      event.verdict = Verdict::kWearableAbsent;
      ++stats_.wearable_absent;
    } else {
      // Retry exactly as process() does: forks of the request's own
      // stream, so batch and sequential processing agree.
      retry_and_settle(event, outcomes[next_scored++], *req.va,
                       *req.wearable, req.segmenter, req.rng);
    }
    ++stats_.processed;
    log_.push_back(event);
    events.push_back(event);
  }
  return events;
}

void DefenseSession::reset() {
  log_.clear();
  stats_ = SessionStats{};
  pipeline_stats_.clear();
}

}  // namespace vibguard::core
