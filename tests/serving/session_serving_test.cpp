// Retry behavior of DefenseSession: an unscoreable command is re-scored on
// decorrelated forks of its rng stream until it scores or the retries run
// out. Overload policy (deadlines, the breaker, reject-on-full) is the
// serving stack's and is tested against Server and Shard.
#include "core/session.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "eval/experiment.hpp"
#include "eval/scenario.hpp"
#include "faults/fault.hpp"

namespace vibguard::core {
namespace {

/// Segmenter that fails its first `failures` calls, then delegates — the
/// deterministic stand-in for a transiently broken pipeline dependency.
class FlakySegmenter : public Segmenter {
 public:
  FlakySegmenter(const Segmenter& inner, int failures)
      : inner_(inner), remaining_(failures) {}

  std::vector<SampleRange> segment(const Signal& audio,
                                   std::size_t timeline_offset) const override {
    if (remaining_ > 0) {
      --remaining_;
      throw std::runtime_error("flaky segmenter outage");
    }
    return inner_.segment(audio, timeline_offset);
  }

 private:
  const Segmenter& inner_;
  mutable int remaining_;
};

struct Fixture {
  eval::ScenarioSimulator sim{eval::ScenarioConfig{}, 9};
  speech::SpeakerProfile user;
  eval::TrialRecordings trial;
  OracleSegmenter segmenter;

  Fixture()
      : user([] {
          Rng rng(10);
          return speech::sample_speaker(speech::Sex::kMale, rng);
        }()),
        trial(sim.legitimate_trial(
            speech::command_by_text("turn on the lights"), user)),
        segmenter(trial.alignment, eval::reference_sensitive_set()) {}
};

TEST(SessionServingTest, RetryRecoversFromTransientStageError) {
  Fixture fx;
  FlakySegmenter flaky(fx.segmenter, /*failures=*/1);
  DefenseSession session(DefenseConfig{}, SessionPolicy{.max_retries = 2});
  Rng rng(51);
  const auto event =
      session.process("transient", fx.trial.va, fx.trial.wearable, &flaky, rng);
  EXPECT_EQ(event.verdict, Verdict::kAccepted);
  EXPECT_EQ(event.attempts, 2u);  // failed once, recovered on the retry
  EXPECT_EQ(session.stats().retries, 1u);
  EXPECT_EQ(session.stats().indeterminate, 0u);
}

TEST(SessionServingTest, RetriesExhaustOnPersistentFault) {
  Fixture fx;
  // A persistently corrupted capture (fault injector at full severity)
  // fails every attempt: the session burns all retries, then settles on
  // kIndeterminate rather than a hostile verdict.
  Signal corrupted = fx.trial.wearable;
  Rng fault_rng(52);
  faults::severity_plan(faults::FaultKind::kNonFinite, 1.0)
      .apply(corrupted, fault_rng);
  DefenseSession session(DefenseConfig{}, SessionPolicy{.max_retries = 3});
  Rng rng(53);
  const auto event = session.process("corrupted", fx.trial.va, corrupted,
                                     &fx.segmenter, rng);
  EXPECT_EQ(event.verdict, Verdict::kIndeterminate);
  EXPECT_EQ(event.attempts, 4u);  // 1 attempt + 3 retries
  EXPECT_EQ(session.stats().retries, 3u);
  EXPECT_TRUE(std::isnan(event.score));
}

}  // namespace
}  // namespace vibguard::core
