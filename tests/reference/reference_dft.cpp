#include "reference/reference_dft.hpp"

#include <cmath>
#include <numbers>

namespace vibguard::testing {

std::vector<Complex> naive_dft(std::span<const Complex> x, bool inverse) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n, Complex(0.0, 0.0));
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc(0.0, 0.0);
    for (std::size_t m = 0; m < n; ++m) {
      const double angle = sign * 2.0 * std::numbers::pi *
                           static_cast<double>(k) * static_cast<double>(m) /
                           static_cast<double>(n);
      acc += x[m] * Complex(std::cos(angle), std::sin(angle));
    }
    out[k] = inverse ? acc / static_cast<double>(n) : acc;
  }
  return out;
}

std::vector<Complex> naive_rfft(std::span<const double> x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n / 2 + 1, Complex(0.0, 0.0));
  for (std::size_t k = 0; k < out.size(); ++k) {
    Complex acc(0.0, 0.0);
    for (std::size_t m = 0; m < n; ++m) {
      const double angle = -2.0 * std::numbers::pi * static_cast<double>(k) *
                           static_cast<double>(m) / static_cast<double>(n);
      acc += x[m] * Complex(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

std::vector<double> naive_irfft(std::span<const Complex> spectrum,
                                std::size_t n) {
  std::vector<Complex> full(n, Complex(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k) {
    full[k] = k < spectrum.size() ? spectrum[k] : std::conj(spectrum[n - k]);
  }
  full[0] = Complex(full[0].real(), 0.0);
  if (n % 2 == 0) full[n / 2] = Complex(full[n / 2].real(), 0.0);
  std::vector<Complex> roots(n);  // exp(+2*pi*i*r/n)
  for (std::size_t r = 0; r < n; ++r) {
    const double angle = 2.0 * std::numbers::pi * static_cast<double>(r) /
                         static_cast<double>(n);
    roots[r] = Complex(std::cos(angle), std::sin(angle));
  }
  std::vector<double> out(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    Complex acc(0.0, 0.0);
    std::size_t r = 0;  // (k * j) mod n
    for (std::size_t k = 0; k < n; ++k) {
      acc += full[k] * roots[r];
      r += j;
      if (r >= n) r -= n;
    }
    out[j] = acc.real() / static_cast<double>(n);
  }
  return out;
}

std::vector<double> naive_magnitude_spectrum(std::span<const double> x) {
  const auto spec = naive_rfft(x);
  std::vector<double> mag(spec.size(), 0.0);
  for (std::size_t k = 0; k < spec.size(); ++k) {
    mag[k] = std::abs(spec[k]) / static_cast<double>(x.size());
  }
  return mag;
}

std::vector<double> naive_power_spectrum(std::span<const double> x) {
  const auto mag = naive_magnitude_spectrum(x);
  std::vector<double> pow(mag.size(), 0.0);
  for (std::size_t k = 0; k < mag.size(); ++k) pow[k] = mag[k] * mag[k];
  return pow;
}

}  // namespace vibguard::testing
