#include "sensors/accelerometer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "dsp/fft.hpp"
#include "dsp/filter.hpp"
#include "dsp/generate.hpp"
#include "dsp/spectral.hpp"

namespace vibguard::sensors {
namespace {

AccelerometerConfig quiet_config() {
  AccelerometerConfig cfg;
  cfg.body_motion_rms = 0.0;
  cfg.base_noise_rms = 0.0;
  cfg.lf_noise_coeff = 0.0;
  return cfg;
}

TEST(AccelerometerTest, OutputAtAccelRate) {
  Accelerometer acc;
  Rng rng(1);
  const Signal audio = dsp::tone(1000.0, 1.0, 16000.0, 0.05);
  const Signal vib = acc.capture(audio, rng);
  EXPECT_DOUBLE_EQ(vib.sample_rate(), 200.0);
  EXPECT_NEAR(static_cast<double>(vib.size()), 200.0, 2.0);
}

TEST(AccelerometerTest, CouplingAttenuatesLowPassesHigh) {
  Accelerometer acc;
  EXPECT_LT(acc.coupling_gain(100.0), 0.1);
  EXPECT_LT(acc.coupling_gain(300.0), 0.2);
  EXPECT_GT(acc.coupling_gain(2000.0), 0.8);
}

TEST(AccelerometerTest, HighFrequencyToneAliasesIntoBand) {
  // Effect 2: a 1030 Hz tone at 200 Hz sampling aliases to |1030-5*200|=30.
  Accelerometer acc(quiet_config());
  Rng rng(2);
  const Signal audio = dsp::tone(1030.0, 2.0, 16000.0, 0.05);
  const Signal vib = acc.capture(audio, rng);
  const auto mag = dsp::magnitude_spectrum(vib.samples());
  std::size_t best = 3;  // skip DC/LF-boost region
  for (std::size_t k = 4; k < mag.size(); ++k) {
    if (mag[k] > mag[best]) best = k;
  }
  const double f =
      dsp::bin_frequency(best, dsp::next_pow2(vib.size()), 200.0);
  EXPECT_NEAR(f, 30.0, 2.0);
}

TEST(AccelerometerTest, LowFrequencyBoostBelow5Hz) {
  Accelerometer acc;
  EXPECT_GT(acc.sensitivity_gain(1.0), 4.0);
  EXPECT_NEAR(acc.sensitivity_gain(50.0), 1.0, 0.01);
}

TEST(AccelerometerTest, ChirpResponseShowsLfArtifact) {
  // Paper Fig. 7: a 500-2500 Hz chirp produces strong 0-5 Hz response.
  Accelerometer acc;
  Rng rng(3);
  const Signal chirp_sig = dsp::chirp(500.0, 2500.0, 2.0, 16000.0, 0.05);
  const Signal vib = acc.capture(chirp_sig, rng);
  const double lf = dsp::band_energy(vib, 0.0, 5.0);
  const double rest_avg =
      dsp::band_energy(vib, 5.0, 100.0) / 19.0;  // per-5Hz-slice average
  EXPECT_GT(lf, 2.0 * rest_avg);
}

TEST(AccelerometerTest, LfDominanceMeasuresBandFraction) {
  Accelerometer acc;
  const Signal low = dsp::tone(200.0, 1.0, 16000.0, 0.05);
  const Signal high = dsp::tone(2000.0, 1.0, 16000.0, 0.05);
  EXPECT_GT(acc.lf_dominance(low), 0.95);
  EXPECT_LT(acc.lf_dominance(high), 0.05);
}

TEST(AccelerometerTest, LfDominanceIsTheValueCaptureUses) {
  // Effect 4's noise level is base + coeff * dominance^2 * rms with
  // saturation off. Recover the noise stddev capture() applied from two
  // captures that differ only in lf_noise_coeff (same rng stream, so the
  // same unit gaussians) and check it against the public probe. The
  // 19301-sample excitation is padded to a 32768-point grid, where the
  // dominance differs from the exact-length spectrum's by ~2e-5
  // (relative), so a probe measuring anything else misses the 1e-12
  // bound by orders of magnitude.
  AccelerometerConfig cfg = quiet_config();
  cfg.lf_noise_saturation_rms = 0.0;
  const Accelerometer deterministic(cfg);
  cfg.lf_noise_coeff = 1.0;
  const Accelerometer noisy(cfg);

  Rng src(11);
  std::vector<double> x(19301);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double t = static_cast<double>(i) / 16000.0;
    x[i] = 0.05 * std::sin(2.0 * std::numbers::pi * 300.0 * t) +
           0.04 * std::sin(2.0 * std::numbers::pi * 1500.0 * t) +
           src.gaussian(0.0, 0.01);
  }
  const Signal mixed(std::move(x), 16000.0);

  Rng r_det(12), r_noisy(12), r_unit(12);
  const Signal det = deterministic.capture(mixed, r_det);
  const Signal vib = noisy.capture(mixed, r_noisy);
  ASSERT_EQ(det.size(), vib.size());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < vib.size(); ++i) {
    const double z = r_unit.gaussian();
    num += (vib[i] - det[i]) * z;
    den += z * z;
  }
  const double noise_rms = num / den;

  const double d = noisy.lf_dominance(mixed);
  EXPECT_GT(d, 0.2);
  EXPECT_LT(d, 0.9);
  EXPECT_NEAR(noise_rms, d * d * mixed.rms(), 1e-12 * noise_rms);
  // Same physical quantity as the exact-length band fraction, to within
  // the grid difference.
  EXPECT_NEAR(d, dsp::band_energy_fraction(mixed, 0.0, 500.0), 5e-3);
}

// Effect 4's band fraction as a loop that asks bin_frequency about every
// bin — the reference for the cutoff-bin search lf_dominance does instead.
double per_bin_lf_dominance(const Signal& audio, double cutoff_hz) {
  std::vector<dsp::Complex> spectrum;
  dsp::gain_curve_spectrum(audio, spectrum);
  const std::size_t m = dsp::gain_fft_size(audio.size());
  double band = 0.0, total = 0.0;
  for (std::size_t k = 0; k < spectrum.size(); ++k) {
    const double re = spectrum[k].real(), im = spectrum[k].imag();
    const double e = re * re + im * im;
    total += e;
    if (dsp::bin_frequency(k, m, audio.sample_rate()) <= cutoff_hz) band += e;
  }
  return total > 0.0 ? band / total : 0.0;
}

TEST(AccelerometerTest, LfDominanceCountsCutoffBinAndMatchesPerBinLoop) {
  const Accelerometer acc;
  ASSERT_EQ(acc.config().lf_dominance_cutoff_hz, 500.0);
  Rng rng(13);
  for (std::size_t m : {16384u, 32768u, 65536u}) {
    SCOPED_TRACE("m = " + std::to_string(m));
    // 500 Hz at 16 kHz lands exactly on bin m/32 (k = 1024 at m = 32768):
    // an m-sample tone there puts all its energy in the cutoff bin.
    std::vector<double> x(m);
    for (std::size_t i = 0; i < m; ++i) {
      x[i] = 0.05 * std::cos(2.0 * std::numbers::pi * 500.0 *
                             static_cast<double>(i) / 16000.0);
    }
    const Signal on_bin(std::move(x), 16000.0);
    ASSERT_EQ(dsp::gain_fft_size(on_bin.size()), m);
    ASSERT_EQ(dsp::bin_frequency(m / 32, m, 16000.0), 500.0);
    EXPECT_GT(acc.lf_dominance(on_bin), 0.999);
    EXPECT_EQ(acc.lf_dominance(on_bin), per_bin_lf_dominance(on_bin, 500.0));

    // Broadband noise padded onto the same grid: bit-identical too.
    const Signal noise(rng.gaussian_vector(m - 123), 16000.0);
    ASSERT_EQ(dsp::gain_fft_size(noise.size()), m);
    EXPECT_EQ(acc.lf_dominance(noise), per_bin_lf_dominance(noise, 500.0));
  }
}

TEST(AccelerometerTest, NoiseGrowsWithLfDominance) {
  // Effect 4: the paper's key physical mechanism — low-frequency-dominated
  // excitation produces a noisier vibration capture.
  AccelerometerConfig cfg;
  cfg.body_motion_rms = 0.0;
  Accelerometer acc(cfg);
  Rng r1(4), r2(4);
  const Signal low = dsp::tone(200.0, 2.0, 16000.0, 0.05);
  const Signal high = dsp::tone(2130.0, 2.0, 16000.0, 0.05);
  const Signal vib_low = acc.capture(low, r1);
  const Signal vib_high = acc.capture(high, r2);
  // Residual noise: the low tone couples at ~0.05 so its capture is almost
  // pure noise; compare that noise against the high tone's noise by looking
  // off the deterministic bins — simplest robust check: the low capture's
  // non-deterministic energy dominates.
  const double det_low = 0.05 * acc.coupling_gain(200.0) / std::sqrt(2.0);
  EXPECT_GT(vib_low.rms(), 3.0 * det_low);
  (void)vib_high;
}

TEST(AccelerometerTest, BroadbandExcitationStaysClean) {
  AccelerometerConfig cfg;
  cfg.body_motion_rms = 0.0;
  Accelerometer acc(cfg);
  Rng rng(5);
  // 2130 Hz: NOT a multiple of 200 Hz, so it aliases to 70 Hz instead of DC.
  const Signal high = dsp::tone(2130.0, 2.0, 16000.0, 0.05);
  const Signal vib = acc.capture(high, rng);
  // Deterministic content (aliased tone) should dominate the capture:
  // total rms close to coupled amplitude / sqrt(2).
  const double det = 0.05 * acc.coupling_gain(2130.0) / std::sqrt(2.0);
  EXPECT_NEAR(vib.rms(), det, 0.5 * det);
}

TEST(AccelerometerTest, BodyMotionConfinedToLowBand) {
  AccelerometerConfig cfg = quiet_config();
  cfg.body_motion_rms = 0.05;
  Accelerometer acc(cfg);
  Rng rng(6);
  const Signal silence = Signal::zeros(32000, 16000.0);
  const Signal vib = acc.capture(silence, rng);
  EXPECT_GT(dsp::band_energy_fraction(vib, 0.0, 4.0), 0.9);
}

TEST(AccelerometerTest, SaturationCapsNoiseAtHighDrive) {
  AccelerometerConfig cfg;
  cfg.body_motion_rms = 0.0;
  Accelerometer acc(cfg);
  Rng r1(7), r2(7);
  const Signal quiet = dsp::tone(200.0, 2.0, 16000.0, 0.02);
  const Signal loud = dsp::tone(200.0, 2.0, 16000.0, 2.0);
  const double n_quiet = acc.capture(quiet, r1).rms();
  const double n_loud = acc.capture(loud, r2).rms();
  // 100x louder drive must NOT give 100x the noise (saturation), but the
  // loud capture carries a 100x bigger deterministic residual, so compare
  // against the saturation bound instead.
  const double bound = cfg.base_noise_rms +
                       cfg.lf_noise_coeff * cfg.lf_noise_saturation_rms +
                       2.0 * acc.coupling_gain(200.0);
  EXPECT_LT(n_loud, bound);
  EXPECT_GT(n_quiet, 0.0);
}

TEST(AccelerometerTest, RejectsUndersampledAudio) {
  Accelerometer acc;
  Rng rng(8);
  const Signal audio({1.0, 2.0}, 300.0);
  EXPECT_THROW(acc.capture(audio, rng), vibguard::InvalidArgument);
}

TEST(AccelerometerTest, EmptyAudioEmptyVibration) {
  Accelerometer acc;
  Rng rng(9);
  const Signal audio({}, 16000.0);
  EXPECT_TRUE(acc.capture(audio, rng).empty());
}

}  // namespace
}  // namespace vibguard::sensors
