// Fast Fourier transforms: the power-of-two helpers and the one-sided
// magnitude spectrum the paper's figures are drawn from.
//
// Every transform runs on a cached per-size real-FFT plan (see
// fft_plan.hpp), and plans exist only for powers of two. The offline
// spectral helpers never need an exact-length DFT, so magnitude_spectrum
// zero-pads its input to the next power of two instead.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace vibguard::dsp {

using Complex = std::complex<double>;

/// One-sided magnitude spectrum of a real signal of n samples, zero-padded
/// to m = next_pow2(n): |X[k]| / n for k = 0..m/2 (m/2 + 1 values, bin k at
/// k * fs / m), normalized by n so magnitudes are amplitude-like.
std::vector<double> magnitude_spectrum(std::span<const double> data);

/// Frequency in Hz of one-sided bin k for an n-point transform at
/// `sample_rate` Hz.
double bin_frequency(std::size_t k, std::size_t n, double sample_rate);

/// Smallest power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

/// True if n is a power of two (n >= 1).
bool is_pow2(std::size_t n);

}  // namespace vibguard::dsp
