// Score golden: the exact bit patterns of DefenseSystem::score on a small
// seeded panel, in every defense mode. Refactors that claim to leave the
// arithmetic untouched (reordered loads, fused passes, new buffers) must
// keep every entry; a change that moves scores on purpose re-records the
// table in the same commit, so the re-baseline is visible in review.
//
// The reduction kernels (dot, pearson_moments) round differently per SIMD
// level, so scores are pinned per level: the scalar column always runs, the
// AVX2 column wherever the CPU offers it. Bits also depend on the
// toolchain's libm; the table was recorded with GCC and glibc on x86-64.
// On a mismatch the test prints the level's table as it now reads, ready to
// paste back in after the change has been checked against the paper
// benches.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "attacks/attack.hpp"
#include "core/pipeline.hpp"
#include "dsp/simd.hpp"
#include "eval/experiment.hpp"
#include "eval/scenario.hpp"

namespace vibguard {
namespace {

using attacks::AttackType;
using core::DefenseMode;

struct GoldenCase {
  std::uint64_t seed;
  const char* command;
  bool attack;
  AttackType attack_type;
  std::size_t va_samples;  ///< pins the trial length the scores belong to
  /// Score bits in kFull, kVibrationBaseline and kAudioBaseline.
  std::uint64_t scalar[3];
  std::uint64_t avx2[3];
};

constexpr DefenseMode kModes[3] = {DefenseMode::kFull,
                                   DefenseMode::kVibrationBaseline,
                                   DefenseMode::kAudioBaseline};

// Two short and six long (> 16384-sample, so > 1 s at 16 kHz) commands,
// legitimate and attacked, so the 16384-, 32768- and 65536-point real
// transforms of sync and capture are all on the path.
constexpr GoldenCase kGolden[] = {
    {101, "stop", false, AttackType::kReplay, 5802,
     {0x3fee7a8576737832, 0x3fee7a8576737832, 0x3fee2a74f1ad0bf8},
     {0x3fee7a8576737834, 0x3fee7a8576737834, 0x3fee2a74f1ad0bea}},
    {102, "alexa", true, AttackType::kReplay, 9990,
     {0x3fbfd15bc596042d, 0x3fbfd15bc596042d, 0x3fee3c612e6541f7},
     {0x3fbfd15bc5960475, 0x3fbfd15bc5960475, 0x3fee3c612e6541f7}},
    {103, "turn on the lights", false, AttackType::kReplay, 18689,
     {0x3fee41152e05355a, 0x3fe812dca8421c1d, 0x3feb6cd1c93e21cb},
     {0x3fee41152e05355c, 0x3fe812dca8421c13, 0x3feb6cd1c93e20d8}},
    {104, "turn on the lights", true, AttackType::kReplay, 18792,
     {0xbfa7f2c608532d07, 0x3fed774c9b2bf6c9, 0x3fed3188640eb180},
     {0xbfa7f2c608532cab, 0x3fed774c9b2bf6c0, 0x3fed3188640eb1dc}},
    {105, "unlock the front door", false, AttackType::kReplay, 24828,
     {0x3fea8ddc5f6c2ddd, 0x3feefb0c34a337db, 0x3fef8f98751fd764},
     {0x3fea8ddc5f6c2ddb, 0x3feefb0c34a337d2, 0x3fef8f98751fd6f5}},
    {106, "unlock the front door", true, AttackType::kHiddenVoice, 19200,
     {0x3fc468a740cd652e, 0x3fc468a740cd652e, 0x3feae30bf9565987},
     {0x3fc468a740cd654a, 0x3fc468a740cd654a, 0x3feae30bf95659ba}},
    {107, "disarm the security system", false, AttackType::kReplay, 36333,
     {0x3feb076a574b7af1, 0x3feeea5d8fab6d91, 0x3feec0c49821c9f7},
     {0x3feb076a574b7b02, 0x3feeea5d8fab6d96, 0x3feec0c49821c791}},
    {108, "open the garage", true, AttackType::kSynthesis, 17699,
     {0x3f9af7eb8355df87, 0x3fe87000e8973d52, 0x3fec55cf489ae466},
     {0x3f9af7eb8355dee4, 0x3fe87000e8973d4f, 0x3fec55cf489ae477}},
};

eval::TrialRecordings make_trial(const GoldenCase& c) {
  eval::ScenarioSimulator sim(eval::ScenarioConfig{}, c.seed);
  Rng rng(c.seed + 1);
  const auto user = speech::sample_speaker(speech::Sex::kMale, rng);
  const auto& command = speech::command_by_text(c.command);
  if (!c.attack) return sim.legitimate_trial(command, user);
  const auto adversary = speech::sample_speaker(speech::Sex::kFemale, rng);
  return sim.attack_trial(c.attack_type, command, user, adversary);
}

double score_in(DefenseMode mode, const eval::TrialRecordings& t,
                std::uint64_t seed) {
  core::DefenseConfig cfg;
  cfg.mode = mode;
  const core::DefenseSystem system(cfg);
  const core::OracleSegmenter seg(t.alignment,
                                  eval::reference_sensitive_set());
  Rng rng(seed + 2);
  return system.score(t.va, t.wearable, &seg, rng);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Scores every case at `level` and checks it against `column`.
void check_level(dsp::simd::Level level,
                 const std::uint64_t (GoldenCase::*column)[3]) {
  const dsp::simd::Level entry = dsp::simd::active_level();
  ASSERT_TRUE(dsp::simd::set_level(level));
  bool all_match = true;
  std::string table;
  for (const GoldenCase& c : kGolden) {
    SCOPED_TRACE(std::string(c.command) + " seed " + std::to_string(c.seed));
    const auto t = make_trial(c);
    EXPECT_EQ(t.va.size(), c.va_samples);
    all_match = all_match && t.va.size() == c.va_samples;
    const std::uint64_t* want = c.*column;
    std::uint64_t got[3];
    for (int m = 0; m < 3; ++m) {
      got[m] = bits(score_in(kModes[m], t, c.seed));
      EXPECT_EQ(got[m], want[m]) << core::mode_name(kModes[m]);
      all_match = all_match && got[m] == want[m];
    }
    char line[160];
    std::snprintf(line, sizeof(line),
                  "    %zu: {0x%016" PRIx64 ", 0x%016" PRIx64
                  ", 0x%016" PRIx64 "},\n",
                  t.va.size(), got[0], got[1], got[2]);
    table += line;
  }
  if (!all_match) {
    std::printf("%s score golden as it now reads (va_samples: {full, "
                "vibration, audio}):\n%s",
                dsp::simd::level_name(level), table.c_str());
  }
  dsp::simd::set_level(entry);
}

TEST(ScoreGoldenTest, ScalarScoresMatchRecordedBitPatterns) {
  check_level(dsp::simd::Level::kScalar, &GoldenCase::scalar);
}

TEST(ScoreGoldenTest, Avx2ScoresMatchRecordedBitPatterns) {
  const auto levels = dsp::simd::available_levels();
  if (std::find(levels.begin(), levels.end(), dsp::simd::Level::kAvx2) ==
      levels.end()) {
    GTEST_SKIP() << "AVX2 is not available on this build or CPU";
  }
  check_level(dsp::simd::Level::kAvx2, &GoldenCase::avx2);
}

}  // namespace
}  // namespace vibguard
