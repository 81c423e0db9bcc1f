// Deliberately naive spectral reference implementations.
//
// Everything in tests/reference trades speed for obviousness: O(n^2) DFT
// sums written straight from the textbook definition, no plans, no caches,
// no shared state. The differential fuzz driver (tests/fuzz) cross-checks
// the optimized kernels in src/dsp against these within tight tolerances,
// so a regression in the fast paths shows up as a numeric mismatch against
// code simple enough to audit by eye.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace vibguard::testing {

using Complex = std::complex<double>;

/// O(n^2) DFT by direct evaluation of X[k] = sum_n x[n] e^{-2*pi*i*k*n/N}.
/// `inverse` evaluates the inverse transform (conjugate kernel, scaled by
/// 1/N).
std::vector<Complex> naive_dft(std::span<const Complex> x, bool inverse);

/// One-sided spectrum X[0..n/2] (n/2 + 1 bins) of a real signal by direct
/// summation — the reference for FftPlan::rfft and, on the zero-padded
/// input, dsp::magnitude_spectrum.
std::vector<Complex> naive_rfft(std::span<const double> x);

/// Inverse of naive_rfft: the n real samples whose one-sided spectrum is
/// `spectrum` (n/2 + 1 bins), by direct summation over the full spectrum
/// rebuilt with X[n - k] = conj(X[k]) (imaginary parts of X[0] and, for
/// even n, X[n/2] dropped), scaled by 1/n — the reference for
/// FftPlan::irfft. The n roots of unity are tabulated once per call, so
/// the O(n^2) sum is cheap enough for fuzzing at a few thousand points.
std::vector<double> naive_irfft(std::span<const Complex> spectrum,
                                std::size_t n);

/// One-sided magnitude spectrum |X[k]|/n of x as given (no padding).
std::vector<double> naive_magnitude_spectrum(std::span<const double> x);

/// One-sided power spectrum (|X[k]|/n)^2 — the reference for
/// FftPlan::power / FftPlan::windowed_power.
std::vector<double> naive_power_spectrum(std::span<const double> x);

}  // namespace vibguard::testing
