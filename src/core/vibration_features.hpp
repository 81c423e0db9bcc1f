// Vibration-domain feature extraction (paper Sec. VI-B).
//
// The 200 Hz accelerometer signal is high-pass filtered against body-motion
// interference, transformed with a 64-point STFT (window == FFT == 64,
// paper's empirical choice), squared to power, cropped below 5 Hz to remove
// the accelerometer's low-frequency sensitivity artifact, and normalized by
// its maximum so features are invariant to user–VA distance.
#pragma once

#include "common/signal.hpp"
#include "dsp/scratch.hpp"
#include "dsp/stft.hpp"

namespace vibguard::core {

struct VibrationFeatureConfig {
  std::size_t window_size = 64;   ///< STFT window and FFT length (2^k >= 2)
  std::size_t hop = 16;           ///< frame shift in samples
  double highpass_hz = 4.0;       ///< body-motion pre-filter cutoff
  double crop_below_hz = 5.0;     ///< accelerometer-artifact crop
  bool normalize = true;          ///< divide by the maximum value
  dsp::WindowType window = dsp::WindowType::kHann;
};

/// Extracts the paper's vibration-domain features from a 200 Hz
/// accelerometer capture.
class VibrationFeatureExtractor {
 public:
  explicit VibrationFeatureExtractor(VibrationFeatureConfig config = {});

  const VibrationFeatureConfig& config() const { return config_; }

  dsp::Spectrogram extract(const Signal& vibration) const;

  /// Allocation-free overload: writes the feature spectrogram into `out`
  /// and routes the high-pass temporary through `scratch`, reusing
  /// capacity. Bit-identical to extract().
  void extract_into(const Signal& vibration, dsp::Spectrogram& out,
                    dsp::Scratch& scratch) const;

 private:
  VibrationFeatureConfig config_;
};

/// Online vibration-feature accumulator for push pipelines.
///
/// Wraps a StreamingStft and applies the accelerometer-artifact crop on the
/// fly: row(i) views the surviving bins of emitted frame i directly inside
/// the STFT row store (the crop is a constant column offset, so no copy is
/// needed). Two of the batch extractor's steps are deliberately *not*
/// reproduced, because both are whole-signal operations:
///   - the zero-phase FFT high-pass — its job (body-motion energy below
///     ~4 Hz) is largely subsumed by the crop, which removes every bin at or
///     below crop_below_hz anyway;
///   - normalize_by_max — the downstream 2-D Pearson is scale-invariant, so
///     normalization cannot change the correlation.
/// Streaming features are therefore an *approximation* used for provisional
/// anytime verdicts; exact scores come from the batch finalize pass.
class StreamingVibrationFeatures {
 public:
  explicit StreamingVibrationFeatures(VibrationFeatureConfig config = {});

  const VibrationFeatureConfig& config() const { return config_; }

  /// Resets the carried state for a new stream at `sample_rate` Hz.
  void begin(double sample_rate);

  /// Appends vibration samples; returns the number of feature frames
  /// emitted by this push.
  std::size_t push(std::span<const double> samples);

  std::size_t frames() const { return stft_.frames(); }

  /// Frequency bins surviving the crop.
  std::size_t bins() const { return stft_.bins() - drop_bins_; }

  /// One emitted frame's `bins()` contiguous cropped power values.
  const double* row(std::size_t frame) const {
    return stft_.row(frame) + drop_bins_;
  }

 private:
  VibrationFeatureConfig config_;
  dsp::StreamingStft stft_;
  std::size_t drop_bins_ = 0;
};

}  // namespace vibguard::core
