#include "core/vibration_features.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dsp/generate.hpp"

namespace vibguard::core {
namespace {

Signal vibration_with_tone(double f, double amp, double duration) {
  return dsp::tone(f, duration, 200.0, amp);
}

TEST(VibrationFeaturesTest, OutputNormalizedToUnitMax) {
  VibrationFeatureExtractor ex;
  Rng rng(1);
  Signal vib = dsp::white_noise(2.0, 200.0, 0.01, rng);
  const auto spec = ex.extract(vib);
  EXPECT_NEAR(spec.max_value(), 1.0, 1e-9);
}

TEST(VibrationFeaturesTest, CropRemovesSub5HzBins) {
  VibrationFeatureExtractor ex;
  const auto spec = ex.extract(vibration_with_tone(30.0, 0.01, 2.0));
  // 33 raw bins at 3.125 Hz spacing; bins 0 and 1 (0, 3.125 Hz) cropped.
  EXPECT_EQ(spec.bins(), 31u);
}

TEST(VibrationFeaturesTest, BodyMotionRemoved) {
  // A 1 Hz body-motion component must not dominate the features.
  VibrationFeatureExtractor ex;
  Signal vib = vibration_with_tone(40.0, 0.005, 3.0);
  const Signal motion = vibration_with_tone(1.0, 0.1, 3.0);
  for (std::size_t i = 0; i < vib.size(); ++i) vib[i] += motion[i];
  const auto spec = ex.extract(vib);
  // Strongest bin should be the 40 Hz tone, not residual body motion.
  // 40 Hz -> raw bin 12.8 -> cropped bin index ~10-11.
  std::size_t best = 0;
  double best_v = -1.0;
  for (std::size_t b = 0; b < spec.bins(); ++b) {
    double col = 0.0;
    for (std::size_t f = 0; f < spec.frames(); ++f) col += spec.at(f, b);
    if (col > best_v) {
      best_v = col;
      best = b;
    }
  }
  EXPECT_NEAR(static_cast<double>(best), 11.0, 2.0);
}

TEST(VibrationFeaturesTest, DistanceInvarianceViaNormalization) {
  VibrationFeatureExtractor ex;
  Signal near = vibration_with_tone(35.0, 0.1, 2.0);
  Signal far = vibration_with_tone(35.0, 0.001, 2.0);
  const auto a = ex.extract(near);
  const auto b = ex.extract(far);
  ASSERT_EQ(a.frames(), b.frames());
  for (std::size_t f = 0; f < a.frames(); ++f) {
    for (std::size_t k = 0; k < a.bins(); ++k) {
      EXPECT_NEAR(a.at(f, k), b.at(f, k), 1e-6);
    }
  }
}

TEST(VibrationFeaturesTest, ConfigurableWithoutNormalization) {
  VibrationFeatureConfig cfg;
  cfg.normalize = false;
  VibrationFeatureExtractor ex(cfg);
  const auto spec = ex.extract(vibration_with_tone(30.0, 0.01, 2.0));
  EXPECT_LT(spec.max_value(), 1.0);  // raw power of a 0.01-amplitude tone
}

TEST(VibrationFeaturesTest, ShortVibrationStillProducesOneFrame) {
  VibrationFeatureExtractor ex;
  const auto spec = ex.extract(vibration_with_tone(30.0, 0.01, 0.1));
  EXPECT_EQ(spec.frames(), 1u);
}

TEST(VibrationFeaturesTest, RejectsNonPowerOfTwoWindowAtConstruction) {
  VibrationFeatureConfig cfg;
  cfg.window_size = 400;
  EXPECT_THROW(VibrationFeatureExtractor{cfg}, InvalidArgument);
}

TEST(VibrationFeaturesTest, StreamingRejectsNonPowerOfTwoWindow) {
  VibrationFeatureConfig cfg;
  cfg.window_size = 400;
  EXPECT_THROW(StreamingVibrationFeatures{cfg}, InvalidArgument);
}

TEST(VibrationFeaturesTest, PaperParametersAreDefaults) {
  VibrationFeatureConfig cfg;
  EXPECT_EQ(cfg.window_size, 64u);   // 64-point window == FFT (Sec. VI-B)
  EXPECT_DOUBLE_EQ(cfg.crop_below_hz, 5.0);  // 0-5 Hz artifact crop
  EXPECT_TRUE(cfg.normalize);        // max-normalization (Sec. VI-C)
}

}  // namespace
}  // namespace vibguard::core
