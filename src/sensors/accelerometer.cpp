#include "sensors/accelerometer.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "dsp/fft.hpp"
#include "dsp/filter.hpp"
#include "dsp/resample.hpp"

namespace vibguard::sensors {
namespace {

// Effect 4's driver read off the zero-padded one-sided spectrum of an
// n-sample excitation: energy in the bins at or below `cutoff_hz` over the
// energy of all bins 0..m/2 (m = dsp::gain_fft_size(n)); 0 for silence.
double lf_fraction(std::span<const std::complex<double>> spectrum,
                   std::size_t n, double sample_rate, double cutoff_hz) {
  const std::size_t m = dsp::gain_fft_size(n);
  // Bin frequencies rise with k, so the bins at or below the cutoff are a
  // prefix 0..band_end-1. Start from the estimate and settle it with the
  // exact predicate.
  const auto at_or_below = [&](std::size_t k) {
    return dsp::bin_frequency(k, m, sample_rate) <= cutoff_hz;
  };
  const double guess = std::floor(cutoff_hz * static_cast<double>(m) /
                                  sample_rate) + 1.0;
  std::size_t band_end =
      !(guess > 0.0) ? 0
                     : static_cast<std::size_t>(std::min(
                           guess, static_cast<double>(spectrum.size())));
  while (band_end < spectrum.size() && at_or_below(band_end)) ++band_end;
  while (band_end > 0 && !at_or_below(band_end - 1)) --band_end;
  double band = 0.0, total = 0.0;
  for (std::size_t k = 0; k < spectrum.size(); ++k) {
    const double re = spectrum[k].real(), im = spectrum[k].imag();
    const double e = re * re + im * im;
    total += e;
    if (k < band_end) band += e;
  }
  return total > 0.0 ? band / total : 0.0;
}

}  // namespace

Accelerometer::Accelerometer(AccelerometerConfig config) : config_(config) {
  VIBGUARD_REQUIRE(config_.sample_rate > 0.0, "sample rate must be positive");
  VIBGUARD_REQUIRE(config_.coupling_low_gain > 0.0 &&
                       config_.coupling_low_gain <= 1.0,
                   "coupling low gain must be in (0, 1]");
}

double Accelerometer::coupling_gain(double f_hz) const {
  // Smooth high-pass knee: coupling_low_gain below the knee rising to 1
  // above it.
  const double ratio = std::max(f_hz, 1e-3) / config_.coupling_knee_hz;
  const double hp =
      1.0 / (1.0 + std::pow(1.0 / ratio, config_.coupling_order));
  return config_.coupling_low_gain +
         (1.0 - config_.coupling_low_gain) * hp;
}

double Accelerometer::sensitivity_gain(double f_hz) const {
  // Strong DC–5 Hz response decaying exponentially (paper Fig. 7).
  return 1.0 +
         config_.lf_boost_gain * std::exp(-f_hz / config_.lf_boost_corner_hz);
}

std::span<const double> Accelerometer::coupling_table(
    const Signal& audio) const {
  return dsp::cached_gain_table(
      {"accel.coupling",
       {config_.coupling_knee_hz, config_.coupling_low_gain,
        config_.coupling_order}},
      audio.size(), audio.sample_rate(),
      [this](double f) { return coupling_gain(f); });
}

std::span<const double> Accelerometer::sensitivity_table(
    const Signal& vibration) const {
  return dsp::cached_gain_table(
      {"accel.sensitivity",
       {config_.lf_boost_gain, config_.lf_boost_corner_hz, 0.0}},
      vibration.size(), vibration.sample_rate(),
      [this](double f) { return sensitivity_gain(f); });
}

double Accelerometer::lf_dominance(const Signal& audio) const {
  if (audio.empty()) return 0.0;
  std::vector<std::complex<double>> spectrum;
  dsp::gain_curve_spectrum(audio, spectrum);
  return lf_fraction(spectrum, audio.size(), audio.sample_rate(),
                     config_.lf_dominance_cutoff_hz);
}

Signal Accelerometer::capture_with_motion(const Signal& audio,
                                          const Signal& motion,
                                          Rng& rng) const {
  Signal out;
  dsp::Scratch scratch;
  capture_with_motion_into(audio, motion, rng, out, scratch);
  return out;
}

void Accelerometer::capture_with_motion_into(const Signal& audio,
                                             const Signal& motion, Rng& rng,
                                             Signal& out,
                                             dsp::Scratch& scratch) const {
  VIBGUARD_REQUIRE(motion.empty() ||
                       motion.sample_rate() == config_.sample_rate,
                   "motion signal must be at the accelerometer rate");
  AccelerometerConfig quiet = config_;
  quiet.body_motion_rms = 0.0;  // replace the stand-in with real motion
  Accelerometer(quiet).capture_into(audio, rng, out, scratch);
  for (std::size_t i = 0; i < out.size() && i < motion.size(); ++i) {
    out[i] += motion[i];
  }
}

Signal Accelerometer::capture(const Signal& audio, Rng& rng) const {
  Signal out;
  dsp::Scratch scratch;
  capture_into(audio, rng, out, scratch);
  return out;
}

void Accelerometer::capture_into(const Signal& audio, Rng& rng, Signal& out,
                                 dsp::Scratch& scratch) const {
  VIBGUARD_REQUIRE(audio.sample_rate() >= 2.0 * config_.sample_rate,
                   "audio rate must be at least twice the accelerometer rate");
  if (audio.empty()) {
    out.reset(config_.sample_rate);
    return;
  }

  // Effect 4's driver is measured before any filtering, on the excitation
  // as the amplifier sees it. It reads the same forward spectrum that
  // effect 1 (conductive coupling) then scales and inverts.
  dsp::gain_curve_spectrum(audio, scratch.cwork);
  const double dominance =
      lf_fraction(scratch.cwork, audio.size(), audio.sample_rate(),
                  config_.lf_dominance_cutoff_hz);
  const double excitation_rms = audio.rms();

  // Effect 2: naive 200 Hz sampling — deliberately NO anti-alias filter
  // (unless the ablation switch is set). Only the sampled points of the
  // coupled excitation are ever read, so the coupling filter inverts just
  // those (see dsp::apply_gains_and_decimate).
  if (config_.anti_alias) {
    dsp::apply_gains_to_spectrum(scratch.cwork, coupling_table(audio),
                                 audio.size(), audio.sample_rate(),
                                 scratch.coupled);
    out = dsp::resample(scratch.coupled, config_.sample_rate);
  } else {
    dsp::apply_gains_and_decimate(scratch.cwork, coupling_table(audio),
                                  audio.size(), audio.sample_rate(),
                                  config_.sample_rate, out, scratch.coupled);
  }

  // Effect 3: low-frequency sensitivity artifact (applied in place).
  dsp::apply_gain_curve(out, sensitivity_table(out), out, scratch.cwork);

  // Effect 4: amplifier noise grows with low-frequency dominance.
  const double sat = config_.lf_noise_saturation_rms;
  const double effective_rms =
      sat > 0.0 ? sat * excitation_rms / (sat + excitation_rms)
                : excitation_rms;
  const double noise_rms =
      config_.base_noise_rms +
      config_.lf_noise_coeff * dominance * dominance * effective_rms;
  for (double& s : out) s += rng.gaussian(0.0, noise_rms);

  // Body motion: slow oscillation within 0.3–3.5 Hz plus drift.
  if (config_.body_motion_rms > 0.0) {
    const double f_motion = rng.uniform(0.3, 3.5);
    const double phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
    const double amp = config_.body_motion_rms * std::numbers::sqrt2;
    for (std::size_t i = 0; i < out.size(); ++i) {
      const double t = static_cast<double>(i) / config_.sample_rate;
      out[i] += amp * std::sin(2.0 * std::numbers::pi * f_motion * t + phase);
    }
  }
}

}  // namespace vibguard::sensors
