#include "dsp/spectral.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "dsp/fft.hpp"

namespace vibguard::dsp {

double band_energy(const Signal& signal, double low_hz, double high_hz) {
  VIBGUARD_REQUIRE(low_hz <= high_hz, "band bounds must satisfy low <= high");
  if (signal.empty()) return 0.0;
  const auto mag = magnitude_spectrum(signal.samples());
  const std::size_t n = signal.size();
  const std::size_t m = next_pow2(n);
  double acc = 0.0;
  for (std::size_t k = 0; k < mag.size(); ++k) {
    const double f = bin_frequency(k, m, signal.sample_rate());
    if (f >= low_hz && f <= high_hz) acc += mag[k] * mag[k];
  }
  // The m-point spectrum of n samples holds m/n times their energy
  // (Parseval), so the sum is rescaled to the unpadded total.
  return acc * static_cast<double>(n) / static_cast<double>(m);
}

double band_energy_fraction(const Signal& signal, double low_hz,
                            double high_hz) {
  const double total = band_energy(signal, 0.0, signal.sample_rate() / 2.0);
  if (total <= 0.0) return 0.0;
  return band_energy(signal, low_hz, high_hz) / total;
}

double spectral_centroid(const Signal& signal) {
  if (signal.empty()) return 0.0;
  const auto mag = magnitude_spectrum(signal.samples());
  const std::size_t m = next_pow2(signal.size());
  double num = 0.0, den = 0.0;
  for (std::size_t k = 0; k < mag.size(); ++k) {
    const double f = bin_frequency(k, m, signal.sample_rate());
    const double p = mag[k] * mag[k];
    num += f * p;
    den += p;
  }
  return den > 0.0 ? num / den : 0.0;
}

std::vector<double> average_spectra(
    std::span<const std::vector<double>> spectra) {
  if (spectra.empty()) return {};
  const std::size_t n = spectra.front().size();
  std::vector<double> avg(n, 0.0);
  for (const auto& s : spectra) {
    VIBGUARD_REQUIRE(s.size() == n,
                     "average_spectra requires equal-length spectra");
    for (std::size_t i = 0; i < n; ++i) avg[i] += s[i];
  }
  for (double& v : avg) v /= static_cast<double>(spectra.size());
  return avg;
}

std::vector<double> magnitude_spectrum_resampled(const Signal& signal,
                                                 double max_hz,
                                                 std::size_t num_points) {
  VIBGUARD_REQUIRE(num_points >= 2, "need at least two output points");
  VIBGUARD_REQUIRE(max_hz > 0.0 && max_hz <= signal.sample_rate() / 2.0,
                   "max_hz must be in (0, Nyquist]");
  std::vector<double> out(num_points, 0.0);
  if (signal.empty()) return out;
  const auto mag = magnitude_spectrum(signal.samples());
  const double bin_hz =
      signal.sample_rate() / static_cast<double>(next_pow2(signal.size()));
  for (std::size_t i = 0; i < num_points; ++i) {
    const double f = max_hz * static_cast<double>(i) /
                     static_cast<double>(num_points - 1);
    const double pos = f / bin_hz;
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, mag.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    if (lo < mag.size()) {
      out[i] = mag[lo] * (1.0 - frac) + mag[hi] * frac;
    }
  }
  return out;
}

}  // namespace vibguard::dsp
