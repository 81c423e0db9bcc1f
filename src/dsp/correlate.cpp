#include "dsp/correlate.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "dsp/fft.hpp"
#include "dsp/fft_plan.hpp"

namespace vibguard::dsp {
namespace {

void cross_correlate_direct(std::span<const double> a,
                            std::span<const double> b, std::size_t max_lag,
                            std::vector<double>& out) {
  out.assign(2 * max_lag + 1, 0.0);
  const auto na = static_cast<std::ptrdiff_t>(a.size());
  const auto nb = static_cast<std::ptrdiff_t>(b.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto lag = static_cast<std::ptrdiff_t>(i) -
                     static_cast<std::ptrdiff_t>(max_lag);
    double acc = 0.0;
    for (std::ptrdiff_t n = 0; n < na; ++n) {
      const std::ptrdiff_t m = n + lag;
      if (m >= 0 && m < nb) acc += a[static_cast<std::size_t>(n)] *
                                   b[static_cast<std::size_t>(m)];
    }
    out[i] = acc;
  }
}

void cross_correlate_fft(std::span<const double> a, std::span<const double> b,
                         std::size_t max_lag, CorrelationScratch& scratch) {
  // corr(lag) = sum_n a(n) b(n+lag) = IRFFT(conj(RFFT(a)) * RFFT(b)), read
  // off the circular correlation of the zero-padded inputs. With both
  // padded to m >= max(na, nb) + max_lag no lag in [-max_lag, max_lag]
  // wraps: a positive lag reaches index na - 1 + max_lag < m, and a
  // negative lag -L lands at m - L >= nb, past every nonzero sample of b.
  const std::size_t m = next_pow2(std::max(a.size(), b.size()) + max_lag);
  const FftPlan& plan = get_plan(m);
  std::vector<Complex>& fa = scratch.fa;
  std::vector<Complex>& fb = scratch.fb;
  fa.resize(m / 2 + 1);
  fb.resize(m / 2 + 1);
  plan.rfft(a, fa);
  plan.rfft(b, fb);
  for (std::size_t k = 0; k < fa.size(); ++k) {
    // conj(fa) * fb, spelled out to skip std::complex's NaN-recovery path.
    const double ar = fa[k].real(), ai = fa[k].imag();
    const double br = fb[k].real(), bi = fb[k].imag();
    fa[k] = Complex(ar * br + ai * bi, ar * bi - ai * br);
  }
  std::vector<double>& circ = scratch.circ;
  circ.resize(m);
  plan.irfft(fa, circ);
  std::vector<double>& out = scratch.corr;
  out.resize(2 * max_lag + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto lag = static_cast<std::ptrdiff_t>(i) -
                     static_cast<std::ptrdiff_t>(max_lag);
    const std::size_t idx =
        lag >= 0 ? static_cast<std::size_t>(lag)
                 : m - static_cast<std::size_t>(-lag);
    out[i] = circ[idx];
  }
}

}  // namespace

const std::vector<double>& cross_correlate(std::span<const double> a,
                                           std::span<const double> b,
                                           std::size_t max_lag,
                                           CorrelationScratch& scratch) {
  // Direct evaluation is cheaper for short inputs; FFT wins decisively for
  // the second-scale 16 kHz recordings the synchronizer handles.
  const std::size_t work = std::min(a.size(), b.size()) * (2 * max_lag + 1);
  if (work < 1u << 18) {
    cross_correlate_direct(a, b, max_lag, scratch.corr);
  } else {
    cross_correlate_fft(a, b, max_lag, scratch);
  }
  return scratch.corr;
}

std::vector<double> cross_correlate(std::span<const double> a,
                                    std::span<const double> b,
                                    std::size_t max_lag) {
  CorrelationScratch scratch;
  cross_correlate(a, b, max_lag, scratch);
  return std::move(scratch.corr);
}

std::ptrdiff_t estimate_delay(std::span<const double> a,
                              std::span<const double> b, std::size_t max_lag,
                              CorrelationScratch& scratch) {
  const auto& corr = cross_correlate(a, b, max_lag, scratch);
  const auto best =
      std::max_element(corr.begin(), corr.end()) - corr.begin();
  return best - static_cast<std::ptrdiff_t>(max_lag);
}

std::ptrdiff_t estimate_delay(std::span<const double> a,
                              std::span<const double> b,
                              std::size_t max_lag) {
  CorrelationScratch scratch;
  return estimate_delay(a, b, max_lag, scratch);
}

std::pair<Signal, Signal> align_by_delay(const Signal& a, const Signal& b,
                                         std::ptrdiff_t delay) {
  VIBGUARD_REQUIRE(a.sample_rate() == b.sample_rate(),
                   "alignment requires matching sample rates");
  Signal ta = a, tb = b;
  if (delay > 0) {
    const auto d = std::min<std::size_t>(static_cast<std::size_t>(delay),
                                         tb.size());
    tb = tb.slice(d, tb.size());
  } else if (delay < 0) {
    const auto d = std::min<std::size_t>(static_cast<std::size_t>(-delay),
                                         ta.size());
    ta = ta.slice(d, ta.size());
  }
  const std::size_t n = std::min(ta.size(), tb.size());
  return {ta.slice(0, n), tb.slice(0, n)};
}

double peak_normalized_correlation(std::span<const double> a,
                                   std::span<const double> b,
                                   std::size_t max_lag) {
  double ea = 0.0, eb = 0.0;
  for (double x : a) ea += x * x;
  for (double x : b) eb += x * x;
  if (ea <= 0.0 || eb <= 0.0) return 0.0;
  const auto corr = cross_correlate(a, b, max_lag);
  double best = 0.0;
  for (double c : corr) best = std::max(best, std::abs(c));
  return best / std::sqrt(ea * eb);
}

}  // namespace vibguard::dsp
