#include "reference/reference_fft.hpp"

#include <cmath>
#include <cstring>
#include <numbers>
#include <utility>

#include "dsp/simd.hpp"

namespace vibguard::testing {
namespace {

// exp(-2*pi*i * j / len) — forward-transform twiddle.
Complex unit_root(std::size_t j, std::size_t len) {
  const double angle =
      -2.0 * std::numbers::pi * static_cast<double>(j) /
      static_cast<double>(len);
  return Complex(std::cos(angle), std::sin(angle));
}

void butterfly_stage(Complex* lo, Complex* hi, const Complex* tw,
                     std::size_t half, bool inverse) {
  for (std::size_t j = 0; j < half; ++j) {
    const double wr = tw[j].real();
    const double wi = inverse ? -tw[j].imag() : tw[j].imag();
    const double xr = hi[j].real();
    const double xi = hi[j].imag();
    const double vr = xr * wr - xi * wi;
    const double vi = xr * wi + xi * wr;
    const double ur = lo[j].real();
    const double ui = lo[j].imag();
    lo[j] = Complex(ur + vr, ui + vi);
    hi[j] = Complex(ur - vr, ui - vi);
  }
}

// exp(-2*pi*i*k/n) for k = 0..n/2: the real-input split twiddles.
std::vector<Complex> rtwiddles(std::size_t n) {
  std::vector<Complex> out(n / 2 + 1);
  for (std::size_t k = 0; k < out.size(); ++k) out[k] = unit_root(k, n);
  return out;
}

// The packed half-length transform of a real input (n >= 2), shared by
// rfft and power: pack adjacent samples into complex pairs, zero-pad,
// transform.
std::vector<Complex> packed_forward(std::span<const double> in,
                                    std::size_t n) {
  const std::size_t h = n / 2;
  std::vector<Complex> packed(h, Complex(0.0, 0.0));
  auto* p = reinterpret_cast<double*>(packed.data());
  if (!in.empty()) std::memcpy(p, in.data(), in.size() * sizeof(double));
  reference_fft_pow2(packed, false);
  return packed;
}

}  // namespace

void reference_fft_pow2(std::span<Complex> data, bool inverse) {
  const std::size_t n = data.size();

  // Bit-reversal permutation as swap pairs (i < j).
  std::vector<std::size_t> bitrev;
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      bitrev.push_back(i);
      bitrev.push_back(j);
    }
  }
  // Per-stage twiddles for stages len = 8..n.
  std::vector<Complex> twiddles;
  for (std::size_t len = 8; len <= n; len <<= 1) {
    for (std::size_t j = 0; j < len / 2; ++j) {
      twiddles.push_back(unit_root(j, len));
    }
  }

  Complex* d = data.data();
  for (std::size_t p = 0; p + 1 < bitrev.size(); p += 2) {
    std::swap(d[bitrev[p]], d[bitrev[p + 1]]);
  }

  // Stage len = 2: butterflies with w = 1.
  for (std::size_t i = 0; i + 1 < n; i += 2) {
    const Complex u = d[i];
    const Complex v = d[i + 1];
    d[i] = u + v;
    d[i + 1] = u - v;
  }
  // Stage len = 4: w is 1 or -i (forward) / +i (inverse).
  if (n >= 4) {
    for (std::size_t i = 0; i < n; i += 4) {
      const Complex u0 = d[i];
      const Complex v0 = d[i + 2];
      d[i] = u0 + v0;
      d[i + 2] = u0 - v0;
      const Complex x = d[i + 3];
      const Complex v1 = inverse ? Complex(-x.imag(), x.real())
                                 : Complex(x.imag(), -x.real());
      const Complex u1 = d[i + 1];
      d[i + 1] = u1 + v1;
      d[i + 3] = u1 - v1;
    }
  }
  // Stages len = 8..n from the twiddle table.
  const Complex* tw = twiddles.data();
  for (std::size_t len = 8; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n; i += len) {
      butterfly_stage(d + i, d + i + half, tw, half, inverse);
    }
    tw += half;
  }

  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) d[i] *= inv_n;
  }
}

std::vector<Complex> reference_rfft(std::span<const double> in,
                                    std::size_t n) {
  std::vector<Complex> out(n / 2 + 1);
  if (n == 1) {
    out[0] = Complex(in.size() == 1 ? in[0] : 0.0, 0.0);
    return out;
  }
  const std::size_t h = n / 2;
  const auto z = packed_forward(in, n);
  out[0] = Complex(z[0].real() + z[0].imag(), 0.0);
  out[h] = Complex(z[0].real() - z[0].imag(), 0.0);
  dsp::simd::ops().rfft_split(z.data(), rtwiddles(n).data(), h, out.data());
  return out;
}

std::vector<double> reference_irfft(std::span<const Complex> spectrum,
                                    std::size_t n, std::size_t out_size) {
  std::vector<double> out(out_size);
  if (n == 1) {
    if (out_size > 0) out[0] = spectrum[0].real();
    return out;
  }
  const std::size_t h = n / 2;
  std::vector<Complex> packed(h);
  const double x0 = spectrum[0].real(), xh = spectrum[h].real();
  packed[0] = Complex(0.5 * (x0 + xh), 0.5 * (x0 - xh));
  dsp::simd::ops().irfft_merge(spectrum.data(), rtwiddles(n).data(), h,
                               packed.data());
  reference_fft_pow2(packed, true);
  if (out_size > 0) {
    std::memcpy(out.data(), reinterpret_cast<const double*>(packed.data()),
                out_size * sizeof(double));
  }
  return out;
}

std::vector<double> reference_power(std::span<const double> in) {
  const std::size_t n = in.size();
  std::vector<double> out(n / 2 + 1);
  const double norm = 1.0 / static_cast<double>(n);
  const double norm2 = norm * norm;
  if (n > 1) {
    const std::size_t h = n / 2;
    const auto z = packed_forward(in, n);
    const double x0 = z[0].real() + z[0].imag();
    const double xh = z[0].real() - z[0].imag();
    out[0] = x0 * x0 * norm2;
    out[h] = xh * xh * norm2;
    dsp::simd::ops().rfft_split_power(z.data(), rtwiddles(n).data(), h,
                                      norm2, out.data());
    return out;
  }
  const auto spec = reference_rfft(in, n);
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = std::norm(spec[k]) * norm2;
  }
  return out;
}

std::vector<double> reference_windowed_power(std::span<const double> in,
                                             std::span<const double> window) {
  std::vector<double> frame(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) frame[i] = in[i] * window[i];
  return reference_power(frame);
}

}  // namespace vibguard::testing
