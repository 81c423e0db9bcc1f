// Naive time-domain references: direct cross-correlation, textbook linear
// resampling and FIR filtering, scalar STFT and Pearson correlation.
//
// See reference_dft.hpp for the philosophy: obviously-correct loops, no
// shared state, used by tests/fuzz to cross-check the optimized kernels.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "common/signal.hpp"
#include "dsp/window.hpp"

namespace vibguard::testing {

/// Direct cross-correlation for lags in [-max_lag, +max_lag]:
/// out[i] = sum_n a(n) * b(n + i - max_lag) over in-range indices.
/// Reference for dsp::cross_correlate (both its direct and FFT paths).
std::vector<double> naive_cross_correlate(std::span<const double> a,
                                          std::span<const double> b,
                                          std::size_t max_lag);

/// Zero-phase gain filter straight from its definition, the reference for
/// dsp::apply_gain_curve: zero-pad to the next power of two m >= n, take
/// the full m-point DFT, multiply bin k by gain(f_k) with f_k = k*fs/m for
/// k <= m/2 and (m - k)*fs/m above (the mirrored negative frequencies),
/// inverse-DFT and keep the real part of the first n samples.
Signal naive_gain_filter(const Signal& in,
                         const std::function<double(double)>& gain);

/// Textbook linear resampler: output sample i is the linear interpolation
/// of the input at position i * in_rate / target_rate. Reference for
/// dsp::decimate_alias / dsp::sample_linear.
Signal naive_linear_resample(const Signal& in, double target_rate);

/// Windowed-sinc low-pass taps (odd length, Hamming window, unity DC gain)
/// evaluated directly from the textbook formula.
std::vector<double> naive_fir_lowpass(double cutoff_hz, double sample_rate,
                                      std::size_t num_taps);

/// Zero-delay-compensated direct convolution with an odd-length FIR.
std::vector<double> naive_fir_filter(std::span<const double> x,
                                     std::span<const double> taps);

/// Band-limited resampler mirroring the documented dsp::resample contract:
/// anti-alias FIR (101 taps at 0.45 * target rate) before downsampling,
/// plain linear interpolation otherwise. Reference for dsp::resample.
Signal naive_resample(const Signal& in, double target_rate);

/// Power spectrogram by direct summation: each frame windowed with the
/// textbook periodic window formula, transformed with the O(n^2) DFT, and
/// squared ((|X|/n)^2, one-sided). Frames (rows) of window_size / 2 + 1
/// bins; short non-empty inputs are zero-padded to one frame, matching
/// dsp::stft_power.
std::vector<std::vector<double>> naive_stft_power(
    const Signal& signal, std::size_t window_size, std::size_t hop,
    dsp::WindowType window = dsp::WindowType::kHann);

/// Two-pass scalar Pearson correlation of two equal-length value arrays
/// (explicit mean pass, then centered moments). Reference for
/// dsp::correlation_2d applied to the overlapping frames.
double naive_pearson(std::span<const double> a, std::span<const double> b);

}  // namespace vibguard::testing
