#include "core/vibration_features.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "dsp/fft.hpp"
#include "dsp/filter.hpp"

namespace vibguard::core {
namespace {

void check_grid(const VibrationFeatureConfig& config) {
  VIBGUARD_REQUIRE(dsp::is_pow2(config.window_size) && config.window_size >= 2,
                   "window size must be a power of two >= 2");
  VIBGUARD_REQUIRE(config.hop > 0, "hop must be positive");
}

}  // namespace

VibrationFeatureExtractor::VibrationFeatureExtractor(
    VibrationFeatureConfig config)
    : config_(config) {
  check_grid(config_);
}

dsp::Spectrogram VibrationFeatureExtractor::extract(
    const Signal& vibration) const {
  dsp::Spectrogram out;
  dsp::Scratch scratch;
  extract_into(vibration, out, scratch);
  return out;
}

void VibrationFeatureExtractor::extract_into(const Signal& vibration,
                                             dsp::Spectrogram& out,
                                             dsp::Scratch& scratch) const {
  const Signal* input = &vibration;
  if (config_.highpass_hz > 0.0 && !vibration.empty()) {
    // Zero-phase FFT-domain high-pass: body motion (e.g. walking at 2 Hz)
    // can be 10-50x stronger than the acoustic vibration, and an IIR this
    // steep at 0.02*fs rings for hundreds of milliseconds; the frequency-
    // domain filter removes the interference without a transient.
    const double hp = config_.highpass_hz;
    dsp::apply_gain_curve(
        vibration,
        [hp](double f) {
          return 1.0 / (1.0 + std::pow(hp / std::max(f, 1e-6), 12.0));
        },
        scratch.filtered, scratch.cwork);
    input = &scratch.filtered;
  }
  dsp::stft_power_into(*input, config_.window_size, config_.hop, out,
                       config_.window);
  if (config_.crop_below_hz > 0.0) {
    out.crop_low_frequencies_in_place(config_.crop_below_hz);
  }
  if (config_.normalize) out.normalize_by_max();
}

StreamingVibrationFeatures::StreamingVibrationFeatures(
    VibrationFeatureConfig config)
    : config_(config) {
  check_grid(config_);
}

void StreamingVibrationFeatures::begin(double sample_rate) {
  stft_.reset(config_.window_size, config_.hop, config_.window);
  // Same crop rule as Spectrogram::crop_low_frequencies_in_place: drop
  // every bin whose center frequency (bin0 at 0 Hz) is <= the cutoff.
  drop_bins_ = 0;
  if (config_.crop_below_hz > 0.0 && sample_rate > 0.0) {
    const double bin_hz = sample_rate / static_cast<double>(config_.window_size);
    const std::size_t bins = config_.window_size / 2 + 1;
    while (drop_bins_ < bins &&
           static_cast<double>(drop_bins_) * bin_hz <= config_.crop_below_hz) {
      ++drop_bins_;
    }
  }
}

std::size_t StreamingVibrationFeatures::push(std::span<const double> samples) {
  return stft_.push(samples);
}

}  // namespace vibguard::core
