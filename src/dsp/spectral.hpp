// Spectral summary statistics used by the attack study and the phoneme
// selection criteria. All of them read magnitude_spectrum (fft.hpp): the
// signal zero-padded to m = next_pow2(n) samples, bins fs/m apart.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/signal.hpp"

namespace vibguard::dsp {

/// Signal energy (sum of squared magnitude-spectrum values) within
/// [low_hz, high_hz], scaled by n/m so that Parseval totals do not depend
/// on the padding.
double band_energy(const Signal& signal, double low_hz, double high_hz);

/// Fraction of total spectral energy within [low_hz, high_hz]; 0 for a
/// silent signal.
double band_energy_fraction(const Signal& signal, double low_hz,
                            double high_hz);

/// Power-weighted mean frequency, sum(f * |X|^2) / sum(|X|^2); 0 for a
/// silent signal.
double spectral_centroid(const Signal& signal);

/// Element-wise mean of several equal-length magnitude spectra.
std::vector<double> average_spectra(
    std::span<const std::vector<double>> spectra);

/// Magnitude spectrum interpolated from its fs/m grid onto `num_points`
/// uniformly spaced frequencies in [0, max_hz] — used to average spectra
/// of signals with different lengths (the paper's Figs. 3/4/6 average 100
/// segments).
std::vector<double> magnitude_spectrum_resampled(const Signal& signal,
                                                 double max_hz,
                                                 std::size_t num_points);

}  // namespace vibguard::dsp
