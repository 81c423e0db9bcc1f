#include "dsp/fft.hpp"

#include "common/error.hpp"
#include "dsp/fft_plan.hpp"

namespace vibguard::dsp {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::vector<double> magnitude_spectrum(std::span<const double> data) {
  if (data.empty()) return {};
  const std::size_t m = next_pow2(data.size());
  std::vector<Complex> spec(m / 2 + 1);
  get_plan(m).rfft(data, spec);
  const double norm = 1.0 / static_cast<double>(data.size());
  std::vector<double> mag(spec.size());
  for (std::size_t k = 0; k < mag.size(); ++k) {
    mag[k] = std::abs(spec[k]) * norm;
  }
  return mag;
}

double bin_frequency(std::size_t k, std::size_t n, double sample_rate) {
  VIBGUARD_REQUIRE(n > 0, "bin_frequency requires n > 0");
  return static_cast<double>(k) * sample_rate / static_cast<double>(n);
}

}  // namespace vibguard::dsp
