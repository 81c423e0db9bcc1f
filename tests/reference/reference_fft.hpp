// The swap-pass FFT: a frozen copy of the power-of-two core FftPlan ran
// before its first pass learned to gather the input in bit-reversed order,
// plus every FftPlan entry point rebuilt on top of it.
//
// Unlike the naive O(n^2) references in reference_dft.hpp, these are
// O(n log n) and reproduce the planned transforms bit for bit: the same
// twiddles, the same butterfly expressions in the same order, the same
// conjugate-symmetric split kernels. The differential fuzz driver holds
// FftPlan to them with exact equality, so any change that claims to reorder
// memory traffic without touching the arithmetic is checked as such, at
// every transform size and SIMD level. Every size here is a power of two,
// as FftPlan's are.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace vibguard::testing {

using Complex = std::complex<double>;

/// In-place power-of-two FFT: an explicit bit-reversal swap pass, then the
/// scalar len = 2 / len = 4 stages and the scalar table-twiddle stages.
/// `inverse` scales by 1/n. data.size() must be a power of two.
void reference_fft_pow2(std::span<Complex> data, bool inverse);

/// FftPlan(n).rfft(in, out): `in` (at most n samples) zero-padded to n;
/// returns n/2 + 1 bins.
std::vector<Complex> reference_rfft(std::span<const double> in,
                                    std::size_t n);

/// FftPlan(n).irfft(spectrum, out): the first `out_size` <= n samples.
std::vector<double> reference_irfft(std::span<const Complex> spectrum,
                                    std::size_t n, std::size_t out_size);

/// FftPlan(in.size()).power(in, out).
std::vector<double> reference_power(std::span<const double> in);

/// FftPlan(in.size()).windowed_power(in, window, out).
std::vector<double> reference_windowed_power(std::span<const double> in,
                                             std::span<const double> window);

}  // namespace vibguard::testing
