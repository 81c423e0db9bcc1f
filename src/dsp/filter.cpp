#include "dsp/filter.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "common/error.hpp"
#include "dsp/fft.hpp"
#include "dsp/fft_plan.hpp"
#include "dsp/resample.hpp"
#include "dsp/simd.hpp"

namespace vibguard::dsp {

Biquad::Biquad(double b0, double b1, double b2, double a1, double a2)
    : b0_(b0), b1_(b1), b2_(b2), a1_(a1), a2_(a2) {}

Biquad Biquad::low_pass(double cutoff_hz, double sample_rate, double q) {
  VIBGUARD_REQUIRE(cutoff_hz > 0.0 && cutoff_hz < sample_rate / 2.0,
                   "cutoff must be in (0, fs/2)");
  VIBGUARD_REQUIRE(q > 0.0, "Q must be positive");
  const double w0 = 2.0 * std::numbers::pi * cutoff_hz / sample_rate;
  const double cw = std::cos(w0);
  const double sw = std::sin(w0);
  const double alpha = sw / (2.0 * q);
  const double a0 = 1.0 + alpha;
  return Biquad((1.0 - cw) / 2.0 / a0, (1.0 - cw) / a0, (1.0 - cw) / 2.0 / a0,
                -2.0 * cw / a0, (1.0 - alpha) / a0);
}

Biquad Biquad::high_pass(double cutoff_hz, double sample_rate, double q) {
  VIBGUARD_REQUIRE(cutoff_hz > 0.0 && cutoff_hz < sample_rate / 2.0,
                   "cutoff must be in (0, fs/2)");
  VIBGUARD_REQUIRE(q > 0.0, "Q must be positive");
  const double w0 = 2.0 * std::numbers::pi * cutoff_hz / sample_rate;
  const double cw = std::cos(w0);
  const double sw = std::sin(w0);
  const double alpha = sw / (2.0 * q);
  const double a0 = 1.0 + alpha;
  return Biquad((1.0 + cw) / 2.0 / a0, -(1.0 + cw) / a0,
                (1.0 + cw) / 2.0 / a0, -2.0 * cw / a0, (1.0 - alpha) / a0);
}

double Biquad::process(double x) {
  const double y = b0_ * x + z1_;
  z1_ = b1_ * x - a1_ * y + z2_;
  z2_ = b2_ * x - a2_ * y;
  return y;
}

void Biquad::process(std::span<double> xs) {
  for (double& x : xs) x = process(x);
}

void Biquad::reset() { z1_ = z2_ = 0.0; }

double Biquad::magnitude_response(double omega) const {
  const Complex z = std::polar(1.0, omega);
  const Complex z2 = z * z;
  const Complex num = b0_ * z2 + b1_ * z + b2_;
  const Complex den = z2 + a1_ * z + a2_;
  return std::abs(num / den);
}

ButterworthFilter::ButterworthFilter(Kind kind, std::size_t order,
                                     double cutoff_hz, double sample_rate) {
  VIBGUARD_REQUIRE(order >= 2 && order % 2 == 0,
                   "Butterworth order must be even and >= 2");
  const std::size_t pairs = order / 2;
  sections_.reserve(pairs);
  for (std::size_t k = 0; k < pairs; ++k) {
    // Standard Butterworth pole-pair Q values.
    const double theta = std::numbers::pi *
                         (2.0 * static_cast<double>(k) + 1.0) /
                         (2.0 * static_cast<double>(order));
    const double q = 1.0 / (2.0 * std::sin(theta));
    sections_.push_back(kind == Kind::kLowPass
                            ? Biquad::low_pass(cutoff_hz, sample_rate, q)
                            : Biquad::high_pass(cutoff_hz, sample_rate, q));
  }
}

double ButterworthFilter::process(double x) {
  for (Biquad& s : sections_) x = s.process(x);
  return x;
}

void ButterworthFilter::process(std::span<double> xs) {
  for (double& x : xs) x = process(x);
}

Signal ButterworthFilter::filtered(const Signal& in) const {
  ButterworthFilter copy = *this;
  copy.reset();
  Signal out = in;
  copy.process(out.samples());
  return out;
}

void ButterworthFilter::reset() {
  for (Biquad& s : sections_) s.reset();
}

std::vector<double> design_fir_lowpass(double cutoff_hz, double sample_rate,
                                       std::size_t num_taps) {
  VIBGUARD_REQUIRE(num_taps % 2 == 1, "FIR length must be odd");
  VIBGUARD_REQUIRE(cutoff_hz > 0.0 && cutoff_hz < sample_rate / 2.0,
                   "cutoff must be in (0, fs/2)");
  const double fc = cutoff_hz / sample_rate;  // normalized cutoff
  const auto mid = static_cast<double>(num_taps - 1) / 2.0;
  std::vector<double> taps(num_taps);
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
  for (double& t : taps) t /= sum;  // unity DC gain
  return taps;
}

std::vector<double> fir_filter(std::span<const double> x,
                               std::span<const double> taps) {
  VIBGUARD_REQUIRE(!taps.empty(), "FIR taps must be non-empty");
  const std::size_t n = x.size();
  const std::size_t num_taps = taps.size();
  const std::size_t delay = (num_taps - 1) / 2;
  std::vector<double> y(n, 0.0);
  const simd::Ops& ops = simd::ops();
  for (std::size_t i = 0; i < n; ++i) {
    // Output index i corresponds to convolution index i + delay.
    const std::size_t conv = i + delay;
    if (conv + 1 >= num_taps && conv < n) {
      // Interior sample: every tap lands in-bounds, so the whole
      // convolution is one reverse dot product.
      y[i] = ops.dot_reverse(taps.data(), x.data() + conv, num_taps);
      continue;
    }
    double acc = 0.0;
    for (std::size_t t = 0; t < num_taps; ++t) {
      if (conv >= t && conv - t < n) acc += taps[t] * x[conv - t];
    }
    y[i] = acc;
  }
  return y;
}

std::size_t gain_fft_size(std::size_t n) { return next_pow2(n); }

namespace {

// Inverse-transforms a (scaled) one-sided spectrum into the first n samples
// of `out`. The input signal is fully consumed by now, so `out` may alias it.
void invert_spectrum(const std::vector<Complex>& spectrum, std::size_t n,
                     double sample_rate, Signal& out) {
  const std::size_t m = gain_fft_size(n);
  out.reset(sample_rate);
  out.resize(n);
  get_plan(m).irfft(spectrum, out.samples());
}

}  // namespace

void gain_curve_spectrum(const Signal& in, std::vector<Complex>& spectrum) {
  const std::size_t m = gain_fft_size(in.size());
  spectrum.resize(m / 2 + 1);
  get_plan(m).rfft(in.samples(), spectrum);
}

void apply_gains_to_spectrum(std::vector<Complex>& spectrum,
                             std::span<const double> gains, std::size_t n,
                             double sample_rate, Signal& out) {
  VIBGUARD_REQUIRE(spectrum.size() == gain_fft_size(n) / 2 + 1 &&
                       gains.size() == spectrum.size(),
                   "gain table and spectrum must match the filter grid");
  for (std::size_t k = 0; k < spectrum.size(); ++k) spectrum[k] *= gains[k];
  invert_spectrum(spectrum, n, sample_rate, out);
}

namespace {

// The fold factor F of apply_gains_and_decimate: the largest power of two
// dividing an integer rate ratio, capped at m / 2; 1 for any other ratio.
std::size_t sample_fold(double ratio, std::size_t m) {
  if (!(ratio < 0x1p52 && ratio == std::floor(ratio))) return 1;
  const auto r = static_cast<std::uint64_t>(ratio);
  const auto f = static_cast<std::size_t>(r & (~r + 1));  // lowest set bit
  return std::max<std::size_t>(1, std::min(f, m / 2));
}

}  // namespace

void apply_gains_and_decimate(std::vector<Complex>& spectrum,
                              std::span<const double> gains, std::size_t n,
                              double sample_rate, double target_rate,
                              Signal& out, Signal& work) {
  VIBGUARD_REQUIRE(target_rate > 0.0 && target_rate <= sample_rate,
                   "target rate must be in (0, sample rate]");
  const std::size_t m = gain_fft_size(n);
  const double ratio = sample_rate / target_rate;
  const std::size_t fold = sample_fold(ratio, m);
  if (fold == 1) {
    apply_gains_to_spectrum(spectrum, gains, n, sample_rate, work);
    decimate_alias_into(work, target_rate, out);
    return;
  }
  VIBGUARD_REQUIRE(spectrum.size() == m / 2 + 1 &&
                       gains.size() == spectrum.size(),
                   "gain table and spectrum must match the filter grid");

  // Fold in place: Z[k] (k = 0..mf/2) reads Y[k] itself, bins k + r*mf
  // above mf/2, and mirrored bins (F - r)*mf - k >= mf/2, so no bin is
  // overwritten before its last read (Z[mf/2] reads Y[mf/2] twice, both
  // before its own write).
  const std::size_t mf = m / fold;
  const std::size_t half = m / 2;
  const double inv_fold = 1.0 / static_cast<double>(fold);
  for (std::size_t k = 0; k <= mf / 2; ++k) {
    Complex acc(0.0, 0.0);
    for (std::size_t j = k; j < m; j += mf) {
      acc += j <= half ? spectrum[j] * gains[j]
                       : std::conj(spectrum[m - j] * gains[m - j]);
    }
    spectrum[k] = acc * inv_fold;
  }

  const auto out_len = static_cast<std::size_t>(
      std::floor(static_cast<double>(n) / ratio));
  out.reset(target_rate);
  if (out_len == 0) return;
  const std::size_t step = static_cast<std::size_t>(ratio) / fold;
  work.reset(sample_rate / static_cast<double>(fold));
  work.resize((out_len - 1) * step + 1);
  get_plan(mf).irfft(std::span<const Complex>(spectrum.data(), mf / 2 + 1),
                     work.samples());
  out.resize(out_len);
  for (std::size_t i = 0; i < out_len; ++i) out[i] = work[i * step];
}

Signal apply_gain_curve(const Signal& in,
                        const std::function<double(double)>& gain) {
  Signal out;
  std::vector<Complex> work;
  apply_gain_curve(in, gain, out, work);
  return out;
}

void apply_gain_curve(const Signal& in,
                      const std::function<double(double)>& gain, Signal& out,
                      std::vector<std::complex<double>>& work) {
  if (in.empty()) {
    if (&out != &in) out = in;
    return;
  }
  const std::size_t n = in.size();
  const std::size_t m = gain_fft_size(n);
  const double fs = in.sample_rate();
  gain_curve_spectrum(in, work);
  for (std::size_t k = 0; k < work.size(); ++k) {
    work[k] *= gain(bin_frequency(k, m, fs));
  }
  invert_spectrum(work, n, fs, out);
}

void apply_gain_curve(const Signal& in, std::span<const double> gains,
                      Signal& out, std::vector<std::complex<double>>& work) {
  if (in.empty()) {
    if (&out != &in) out = in;
    return;
  }
  const std::size_t n = in.size();
  const double fs = in.sample_rate();
  gain_curve_spectrum(in, work);
  apply_gains_to_spectrum(work, gains, n, fs, out);
}

namespace {

struct GainTable {
  GainCurveKey key;
  std::size_t fft_size = 0;
  double sample_rate = 0.0;
  std::uint64_t last_use = 0;
  std::vector<double> gains;
};

// Enough for every curve of a few devices at a few command-length grids;
// a thread serving more shapes than this recomputes tables, it never grows.
constexpr std::size_t kGainTableSlots = 32;

}  // namespace

std::span<const double> cached_gain_table(
    const GainCurveKey& key, std::size_t n, double sample_rate,
    const std::function<double(double)>& gain) {
  thread_local std::vector<GainTable> cache;
  thread_local std::uint64_t clock = 0;
  const std::size_t m = gain_fft_size(n);
  ++clock;
  for (GainTable& t : cache) {
    if (t.fft_size == m && t.sample_rate == sample_rate && t.key == key) {
      t.last_use = clock;
      return t.gains;
    }
  }
  GainTable* slot = nullptr;
  if (cache.size() < kGainTableSlots) {
    // Reserved up front, so earlier tables never move.
    cache.reserve(kGainTableSlots);
    slot = &cache.emplace_back();
  } else {
    slot = &*std::min_element(cache.begin(), cache.end(),
                              [](const GainTable& a, const GainTable& b) {
                                return a.last_use < b.last_use;
                              });
  }
  slot->key = key;
  slot->fft_size = m;
  slot->sample_rate = sample_rate;
  slot->last_use = clock;
  // An evicted table may have been larger; release the excess.
  slot->gains.resize(m / 2 + 1);
  slot->gains.shrink_to_fit();
  for (std::size_t k = 0; k < slot->gains.size(); ++k) {
    slot->gains[k] = gain(bin_frequency(k, m, sample_rate));
  }
  return slot->gains;
}

}  // namespace vibguard::dsp
