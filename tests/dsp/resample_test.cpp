#include "dsp/resample.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dsp/fft.hpp"
#include "dsp/generate.hpp"
#include "dsp/spectral.hpp"

namespace vibguard::dsp {
namespace {

/// Frequency of the strongest bin of a signal.
double dominant_frequency(const Signal& s) {
  const auto mag = magnitude_spectrum(s.samples());
  std::size_t best = 1;  // skip DC
  for (std::size_t k = 2; k < mag.size(); ++k) {
    if (mag[k] > mag[best]) best = k;
  }
  return bin_frequency(best, next_pow2(s.size()), s.sample_rate());
}

TEST(ResampleTest, OutputLengthMatchesRateRatio) {
  const Signal in = Signal::zeros(16000, 16000.0);
  const Signal out = resample(in, 8000.0);
  EXPECT_NEAR(static_cast<double>(out.size()), 8000.0, 2.0);
  EXPECT_DOUBLE_EQ(out.sample_rate(), 8000.0);
}

TEST(ResampleTest, ToneSurvivesDownsamplingWithinBand) {
  const Signal in = tone(50.0, 2.0, 16000.0);
  const Signal out = resample(in, 400.0);
  EXPECT_NEAR(dominant_frequency(out), 50.0, 1.0);
}

TEST(ResampleTest, AntiAliasRemovesOutOfBandTone) {
  // 3000 Hz tone downsampled to 400 Hz must (mostly) vanish, not alias.
  const Signal in = tone(3000.0, 2.0, 16000.0);
  const Signal out = resample(in, 400.0);
  EXPECT_LT(out.rms(), 0.05 * in.rms());
}

TEST(ResampleTest, SameRateIsCopy) {
  Rng rng(1);
  const Signal in = white_noise(0.1, 1000.0, 1.0, rng);
  const Signal out = resample(in, 1000.0);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], in[i]);
  }
}

TEST(DecimateAliasTest, FoldsHighFrequencyIntoBand) {
  // 230 Hz sampled at 200 Hz aliases to |230 - 200| = 30 Hz.
  const Signal in = tone(230.0, 4.0, 16000.0);
  const Signal out = decimate_alias(in, 200.0);
  EXPECT_NEAR(dominant_frequency(out), 30.0, 1.5);
  // Energy is preserved (no anti-alias attenuation).
  EXPECT_NEAR(out.rms(), in.rms(), 0.05 * in.rms());
}

TEST(DecimateAliasTest, MirrorsAroundNyquist) {
  // 130 Hz at 200 Hz sampling aliases to 200 - 130 = 70 Hz.
  const Signal in = tone(130.0, 4.0, 16000.0);
  const Signal out = decimate_alias(in, 200.0);
  EXPECT_NEAR(dominant_frequency(out), 70.0, 1.5);
}

TEST(DecimateAliasTest, InBandToneUnchanged) {
  const Signal in = tone(40.0, 4.0, 16000.0);
  const Signal out = decimate_alias(in, 200.0);
  EXPECT_NEAR(dominant_frequency(out), 40.0, 1.0);
}

TEST(DecimateAliasTest, IntoSelfAliasingMatchesFreshOutput) {
  // The PR 3 aliasing regression: decimate_alias_into used to reset/resize
  // `out` before reading `in`, so passing the same Signal for both
  // destroyed the input mid-read and produced (mostly) zeros.
  Rng rng(7);
  const Signal in = white_noise(0.5, 16000.0, 0.3, rng);
  const Signal expected = decimate_alias(in, 200.0);
  Signal sig = in;
  decimate_alias_into(sig, 200.0, sig);
  ASSERT_EQ(sig.size(), expected.size());
  EXPECT_DOUBLE_EQ(sig.sample_rate(), 200.0);
  for (std::size_t i = 0; i < sig.size(); ++i) {
    EXPECT_DOUBLE_EQ(sig[i], expected[i]) << "sample " << i;
  }
}

TEST(DecimateAliasTest, IntoReusesOutputAcrossCalls) {
  Rng rng(8);
  const Signal a = white_noise(0.25, 16000.0, 0.3, rng);
  const Signal b = white_noise(0.5, 8000.0, 0.3, rng);
  Signal out;
  decimate_alias_into(a, 200.0, out);
  decimate_alias_into(b, 150.0, out);
  const Signal fresh = decimate_alias(b, 150.0);
  ASSERT_EQ(out.size(), fresh.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], fresh[i]) << "sample " << i;
  }
}

TEST(SampleLinearTest, EmptyInputYieldsEmptyAtTargetRate) {
  // A default-constructed Signal has sample rate 0; the empty guard must
  // keep the in/out ratio from going 0/0.
  const Signal empty;
  const Signal out = sample_linear(empty, 100.0);
  EXPECT_TRUE(out.empty());
  EXPECT_DOUBLE_EQ(out.sample_rate(), 100.0);
}

TEST(DecimateAliasTest, RejectsUpsampling) {
  const Signal in = Signal::zeros(100, 100.0);
  EXPECT_THROW(decimate_alias(in, 200.0), InvalidArgument);
}

TEST(ResampleTest, RejectsNonPositiveRate) {
  const Signal in = Signal::zeros(10, 100.0);
  EXPECT_THROW(resample(in, 0.0), InvalidArgument);
  EXPECT_THROW(decimate_alias(in, -5.0), InvalidArgument);
}

TEST(SampleLinearTest, HalvingRateKeepsEverySecondSample) {
  Signal in({0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0}, 8.0);
  const Signal out = sample_linear(in, 4.0);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 2.0);
  EXPECT_DOUBLE_EQ(out[3], 6.0);
}

}  // namespace
}  // namespace vibguard::dsp
