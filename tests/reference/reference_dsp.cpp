#include "reference/reference_dsp.hpp"

#include <cmath>
#include <numbers>

#include "reference/reference_dft.hpp"

namespace vibguard::testing {

std::vector<double> naive_cross_correlate(std::span<const double> a,
                                          std::span<const double> b,
                                          std::size_t max_lag) {
  std::vector<double> out(2 * max_lag + 1, 0.0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto lag = static_cast<std::ptrdiff_t>(i) -
                     static_cast<std::ptrdiff_t>(max_lag);
    double acc = 0.0;
    for (std::size_t n = 0; n < a.size(); ++n) {
      const auto m = static_cast<std::ptrdiff_t>(n) + lag;
      if (m >= 0 && m < static_cast<std::ptrdiff_t>(b.size())) {
        acc += a[n] * b[static_cast<std::size_t>(m)];
      }
    }
    out[i] = acc;
  }
  return out;
}

Signal naive_gain_filter(const Signal& in,
                         const std::function<double(double)>& gain) {
  const std::size_t n = in.size();
  if (n == 0) return in;
  std::size_t m = 1;
  while (m < n) m *= 2;
  const double fs = in.sample_rate();
  std::vector<Complex> x(m, Complex(0.0, 0.0));
  for (std::size_t i = 0; i < n; ++i) x[i] = Complex(in[i], 0.0);
  std::vector<Complex> spec = naive_dft(x, false);
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t mirrored = k <= m / 2 ? k : m - k;
    spec[k] *= gain(static_cast<double>(mirrored) * fs /
                    static_cast<double>(m));
  }
  const std::vector<Complex> back = naive_dft(spec, true);
  std::vector<double> out(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) out[i] = back[i].real();
  return Signal(std::move(out), fs);
}

Signal naive_linear_resample(const Signal& in, double target_rate) {
  if (in.empty()) return Signal({}, target_rate);
  const double step = in.sample_rate() / target_rate;
  const auto out_len = static_cast<std::size_t>(
      std::floor(static_cast<double>(in.size()) / step));
  std::vector<double> out(out_len, 0.0);
  for (std::size_t i = 0; i < out_len; ++i) {
    const double pos = static_cast<double>(i) * step;
    auto lo = static_cast<std::size_t>(pos);
    std::size_t hi = lo + 1;
    if (hi >= in.size()) hi = lo;
    const double frac = pos - static_cast<double>(lo);
    out[i] = in[lo] * (1.0 - frac) + in[hi] * frac;
  }
  return Signal(std::move(out), target_rate);
}

std::vector<double> naive_fir_lowpass(double cutoff_hz, double sample_rate,
                                      std::size_t num_taps) {
  const double fc = cutoff_hz / sample_rate;
  const double mid = static_cast<double>(num_taps - 1) / 2.0;
  std::vector<double> taps(num_taps, 0.0);
  double sum = 0.0;
  for (std::size_t i = 0; i < num_taps; ++i) {
    const double m = static_cast<double>(i) - mid;
    const double sinc =
        m == 0.0 ? 2.0 * fc
                 : std::sin(2.0 * std::numbers::pi * fc * m) /
                       (std::numbers::pi * m);
    const double hamming =
        0.54 - 0.46 * std::cos(2.0 * std::numbers::pi *
                               static_cast<double>(i) /
                               static_cast<double>(num_taps - 1));
    taps[i] = sinc * hamming;
    sum += taps[i];
  }
  for (double& t : taps) t /= sum;
  return taps;
}

std::vector<double> naive_fir_filter(std::span<const double> x,
                                     std::span<const double> taps) {
  const std::size_t n = x.size();
  const std::size_t delay = (taps.size() - 1) / 2;
  std::vector<double> y(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t t = 0; t < taps.size(); ++t) {
      // Output i is convolution index i + delay (center-aligned FIR).
      const auto src = static_cast<std::ptrdiff_t>(i + delay) -
                       static_cast<std::ptrdiff_t>(t);
      if (src >= 0 && src < static_cast<std::ptrdiff_t>(n)) {
        acc += taps[t] * x[static_cast<std::size_t>(src)];
      }
    }
    y[i] = acc;
  }
  return y;
}

Signal naive_resample(const Signal& in, double target_rate) {
  if (in.empty() || target_rate == in.sample_rate()) {
    return Signal(std::vector<double>(in.begin(), in.end()),
                  in.empty() ? target_rate : in.sample_rate());
  }
  if (target_rate < in.sample_rate()) {
    const auto taps =
        naive_fir_lowpass(0.45 * target_rate, in.sample_rate(), 101);
    Signal filtered(naive_fir_filter(in.samples(), taps), in.sample_rate());
    return naive_linear_resample(filtered, target_rate);
  }
  return naive_linear_resample(in, target_rate);
}

std::vector<std::vector<double>> naive_stft_power(const Signal& signal,
                                                  std::size_t window_size,
                                                  std::size_t hop,
                                                  dsp::WindowType window) {
  std::vector<double> samples(signal.begin(), signal.end());
  if (!samples.empty() && samples.size() < window_size) {
    samples.resize(window_size, 0.0);  // pad short inputs to one frame
  }
  const std::size_t n = samples.size();
  const std::size_t frames =
      n >= window_size ? 1 + (n - window_size) / hop : 0;
  const auto win = dsp::make_window(window, window_size);
  std::vector<std::vector<double>> out;
  out.reserve(frames);
  std::vector<double> frame(window_size, 0.0);
  for (std::size_t f = 0; f < frames; ++f) {
    for (std::size_t i = 0; i < window_size; ++i) {
      frame[i] = samples[f * hop + i] * win[i];
    }
    out.push_back(naive_power_spectrum(frame));
  }
  return out;
}

double naive_pearson(std::span<const double> a, std::span<const double> b) {
  const std::size_t n = a.size();
  if (n == 0) return 0.0;
  double mean_a = 0.0, mean_b = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mean_a += a[i];
    mean_b += b[i];
  }
  mean_a /= static_cast<double>(n);
  mean_b /= static_cast<double>(n);
  double cov = 0.0, var_a = 0.0, var_b = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double da = a[i] - mean_a;
    const double db = b[i] - mean_b;
    cov += da * db;
    var_a += da * da;
    var_b += db * db;
  }
  if (var_a <= 0.0 || var_b <= 0.0) return 0.0;
  return cov / std::sqrt(var_a * var_b);
}

}  // namespace vibguard::testing
