#include "dsp/stft.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dsp/generate.hpp"
#include "dsp/simd.hpp"

namespace vibguard::dsp {
namespace {

TEST(SpectrogramTest, ShapeAndIndexing) {
  Spectrogram s(3, 4, 2.0, 0.1);
  EXPECT_EQ(s.frames(), 3u);
  EXPECT_EQ(s.bins(), 4u);
  s.at(2, 3) = 7.0;
  EXPECT_DOUBLE_EQ(s.at(2, 3), 7.0);
  EXPECT_THROW(s.at(3, 0), InvalidArgument);
  EXPECT_THROW(s.at(0, 4), InvalidArgument);
}

TEST(SpectrogramTest, NormalizeByMax) {
  Spectrogram s(1, 3, 1.0, 0.1);
  s.at(0, 0) = 2.0;
  s.at(0, 1) = 4.0;
  s.normalize_by_max();
  EXPECT_DOUBLE_EQ(s.at(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(s.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(s.max_value(), 1.0);
}

TEST(SpectrogramTest, NormalizeAllZerosIsNoop) {
  Spectrogram s(2, 2, 1.0, 0.1);
  s.normalize_by_max();
  EXPECT_DOUBLE_EQ(s.max_value(), 0.0);
}

// max_value/normalize_by_max run through the dispatched vector max and
// divide; at every level they must give the bits of the scalar fold
// std::max(best, v) from +0.0 and of v / max, NaN cells, zeros of either
// sign and all-negative grids included.
TEST(SpectrogramTest, NormalizeMatchesScalarFoldAtEveryLevel) {
  const simd::Level entry_level = simd::active_level();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(31);
  for (const std::size_t cells : {0, 1, 3, 4, 5, 15, 16, 17, 63, 257}) {
    for (int kind = 0; kind < 4; ++kind) {
      // 0: positive with NaN cells, 1: all zeros (+0.0 and -0.0),
      // 2: all negative, 3: NaN first, then mixed signs.
      Spectrogram grid(1, cells, 1.0, 0.1);
      for (std::size_t i = 0; i < cells; ++i) {
        double v = rng.uniform(0.0, 10.0);
        if (kind == 0 && i % 5 == 2) v = nan;
        if (kind == 1) v = i % 2 == 0 ? 0.0 : -0.0;
        if (kind == 2) v = -v - 1.0;
        if (kind == 3) v = i == 0 ? nan : v - 5.0;
        grid.values()[i] = v;
      }
      double want_max = 0.0;
      for (double v : grid.values()) want_max = std::max(want_max, v);
      std::vector<double> want(grid.values().begin(), grid.values().end());
      if (want_max > 0.0) {
        for (double& v : want) v /= want_max;
      }
      for (simd::Level level : simd::available_levels()) {
        SCOPED_TRACE(std::string(simd::level_name(level)) + " cells " +
                     std::to_string(cells) + " kind " + std::to_string(kind));
        ASSERT_TRUE(simd::set_level(level));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(grid.max_value()),
                  std::bit_cast<std::uint64_t>(want_max));
        Spectrogram normalized = grid;
        normalized.normalize_by_max();
        for (std::size_t i = 0; i < cells; ++i) {
          const double got = normalized.values()[i];
          if (std::isnan(want[i])) {
            EXPECT_TRUE(std::isnan(got)) << "cell " << i;
          } else {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                      std::bit_cast<std::uint64_t>(want[i]))
                << "cell " << i;
          }
        }
      }
    }
  }
  simd::set_level(entry_level);
}

TEST(SpectrogramTest, MeanOverTime) {
  Spectrogram s(2, 2, 1.0, 0.1);
  s.at(0, 0) = 1.0;
  s.at(1, 0) = 3.0;
  const auto avg = s.mean_over_time();
  EXPECT_DOUBLE_EQ(avg[0], 2.0);
  EXPECT_DOUBLE_EQ(avg[1], 0.0);
}

TEST(StftTest, FrameCountMatchesFormula) {
  const Signal s = Signal::zeros(200, 200.0);
  const auto spec = stft_power(s, 64, 16);
  EXPECT_EQ(spec.frames(), 1u + (200u - 64u) / 16u);
  EXPECT_EQ(spec.bins(), 33u);
  EXPECT_DOUBLE_EQ(spec.bin_hz(), 200.0 / 64.0);
}

TEST(StftTest, ShortSignalIsPaddedToOneFrame) {
  const Signal s = Signal::zeros(20, 200.0);
  const auto spec = stft_power(s, 64, 16);
  EXPECT_EQ(spec.frames(), 1u);
}

TEST(StftTest, EmptySignalZeroFrames) {
  const Signal s({}, 200.0);
  const auto spec = stft_power(s, 64, 16);
  EXPECT_EQ(spec.frames(), 0u);
}

TEST(StftTest, ToneEnergyConcentratesInCorrectBin) {
  // 25 Hz tone sampled at 200 Hz, 64-point window: bin = 25/(200/64) = 8.
  const Signal s = tone(25.0, 2.0, 200.0);
  const auto spec = stft_power(s, 64, 32, WindowType::kHann);
  for (std::size_t f = 0; f < spec.frames(); ++f) {
    std::size_t best = 0;
    double best_v = -1.0;
    for (std::size_t b = 0; b < spec.bins(); ++b) {
      if (spec.at(f, b) > best_v) {
        best_v = spec.at(f, b);
        best = b;
      }
    }
    EXPECT_EQ(best, 8u);
  }
}

TEST(StftTest, CropLowFrequenciesRemovesBins) {
  const Signal s = Signal::zeros(200, 200.0);
  const auto spec = stft_power(s, 64, 16);
  // bin spacing 3.125 Hz; crop <= 5 Hz drops bins 0 (0 Hz) and 1 (3.125 Hz).
  const auto cropped = spec.crop_low_frequencies(5.0);
  EXPECT_EQ(cropped.bins(), spec.bins() - 2);
  EXPECT_EQ(cropped.frames(), spec.frames());
}

TEST(StftTest, CropPreservesHighBinValues) {
  const Signal s = tone(50.0, 1.0, 200.0);  // bin 16
  auto spec = stft_power(s, 64, 32);
  const double before = spec.at(0, 16);
  const auto cropped = spec.crop_low_frequencies(5.0);
  EXPECT_DOUBLE_EQ(cropped.at(0, 14), before);
}

TEST(Correlation2dTest, IdenticalSpectrogramsGiveOne) {
  Rng rng(3);
  const Signal s = white_noise(2.0, 200.0, 1.0, rng);
  const auto a = stft_power(s, 64, 16);
  EXPECT_NEAR(correlation_2d(a, a), 1.0, 1e-12);
}

TEST(Correlation2dTest, IndependentNoiseNearZero) {
  Rng rng(4);
  const Signal s1 = white_noise(20.0, 200.0, 1.0, rng);
  const Signal s2 = white_noise(20.0, 200.0, 1.0, rng);
  const auto a = stft_power(s1, 64, 16);
  const auto b = stft_power(s2, 64, 16);
  EXPECT_LT(std::abs(correlation_2d(a, b)), 0.35);
}

TEST(Correlation2dTest, ScaledCopyStillPerfect) {
  Rng rng(5);
  Signal s = white_noise(2.0, 200.0, 1.0, rng);
  const auto a = stft_power(s, 64, 16);
  s.scale(3.0);
  const auto b = stft_power(s, 64, 16);
  EXPECT_NEAR(correlation_2d(a, b), 1.0, 1e-9);
}

TEST(Correlation2dTest, TruncatesToShorterOperand) {
  Rng rng(6);
  const Signal s = white_noise(4.0, 200.0, 1.0, rng);
  const auto a = stft_power(s, 64, 16);
  const auto b = stft_power(s.slice(0, 400), 64, 16);
  EXPECT_NEAR(correlation_2d(a, b), 1.0, 1e-12);
}

TEST(Correlation2dTest, RejectsBinMismatch) {
  Spectrogram a(1, 4, 1.0, 0.1), b(1, 5, 1.0, 0.1);
  EXPECT_THROW(correlation_2d(a, b), InvalidArgument);
}

TEST(SpectrogramTest, ResizedFramesTruncatesAndPads) {
  Spectrogram s(2, 2, 1.0, 0.1);
  s.at(0, 0) = 1.0;
  s.at(1, 1) = 2.0;
  const auto shorter = s.resized_frames(1);
  EXPECT_EQ(shorter.frames(), 1u);
  EXPECT_DOUBLE_EQ(shorter.at(0, 0), 1.0);
  const auto longer = s.resized_frames(4);
  EXPECT_EQ(longer.frames(), 4u);
  EXPECT_DOUBLE_EQ(longer.at(3, 0), 0.0);
  EXPECT_DOUBLE_EQ(longer.at(1, 1), 2.0);
}

}  // namespace
}  // namespace vibguard::dsp
