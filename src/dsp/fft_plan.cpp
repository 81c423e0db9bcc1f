#include "dsp/fft_plan.hpp"

#include <cmath>
#include <memory>
#include <numbers>
#include <unordered_map>

#include "common/error.hpp"
#include "dsp/fft.hpp"
#include "dsp/simd.hpp"

namespace vibguard::dsp {
namespace {

// exp(-2*pi*i * j / len) — forward-transform twiddle.
Complex unit_root(std::size_t j, std::size_t len) {
  const double angle =
      -2.0 * std::numbers::pi * static_cast<double>(j) /
      static_cast<double>(len);
  return Complex(std::cos(angle), std::sin(angle));
}

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n), h_(n / 2) {
  VIBGUARD_REQUIRE(is_pow2(n_), "FFT plan size must be a power of two");

  // Bit-reversed indices for the gathering first pass: rev4_[q] reverses
  // 4q over log2(h) bits, i.e. q over log2(h) - 2 bits, built by the usual
  // recurrence rev(i) = rev(i / 2) / 2 | (i odd ? top bit : 0).
  const std::size_t quarter = h_ / 4;
  VIBGUARD_REQUIRE(quarter <= (std::size_t{1} << 32),
                   "FFT plan size exceeds the uint32 index table");
  rev4_.assign(quarter, 0);
  for (std::size_t q = 1; q < quarter; ++q) {
    rev4_[q] = static_cast<std::uint32_t>(
        (rev4_[q >> 1] >> 1) | ((q & 1) != 0 ? quarter >> 1 : 0));
  }

  // Per-stage twiddles for stages len = 8..h (the len = 2 and len = 4
  // stages are multiplication-free and handled inline).
  for (std::size_t len = 8; len <= h_; len <<= 1) {
    for (std::size_t j = 0; j < len / 2; ++j) {
      twiddles_.push_back(unit_root(j, len));
    }
  }

  rtwiddle_.resize(h_ + 1);
  for (std::size_t k = 0; k <= h_; ++k) rtwiddle_[k] = unit_root(k, n_);
  scratch_.resize(n_);
}

void FftPlan::run_half(const double* src, std::size_t len, Complex* out,
                       bool inverse) const {
  const simd::Ops& ops = simd::ops();

  // The bit-reversal permutation and the multiplication-free len = 2 and
  // len = 4 stages (twiddles 1 and ∓i) run fused through one dispatched
  // kernel, reading src at bit-reversed positions.
  ops.fft_gather_stage2_4(out, src, len, rev4_.data(), h_, inverse);

  // Remaining stages read twiddles from the table and run fused through one
  // dispatched kernel (scalar fallback is the pre-SIMD loop).
  ops.fft_stages(out, h_, twiddles_.data(), inverse);
}

void FftPlan::rfft(std::span<const double> in, std::span<Complex> out) const {
  VIBGUARD_REQUIRE(in.size() <= n_, "input must not exceed the plan size");
  VIBGUARD_REQUIRE(out.size() == h_ + 1, "rfft output needs n/2 + 1 bins");
  if (n_ == 1) {
    out[0] = Complex(in.empty() ? 0.0 : in[0], 0.0);
    return;
  }

  // Transform adjacent real samples packed as one complex sequence of half
  // length (read in place, zero padding implicit), then split the even/odd
  // sub-spectra by conjugate symmetry:
  //   X[k] = E[k] + exp(-2*pi*i*k/n) * O[k].
  run_half(in.data(), in.size(), scratch_.data(), false);
  const Complex z0 = scratch_[0];
  out[0] = Complex(z0.real() + z0.imag(), 0.0);
  out[h_] = Complex(z0.real() - z0.imag(), 0.0);
  simd::ops().rfft_split(scratch_.data(), rtwiddle_.data(), h_, out.data());
}

void FftPlan::irfft(std::span<const Complex> in, std::span<double> out) const {
  VIBGUARD_REQUIRE(in.size() == h_ + 1, "irfft input needs n/2 + 1 bins");
  VIBGUARD_REQUIRE(out.size() <= n_, "output must not exceed the plan size");
  if (n_ == 1) {
    if (!out.empty()) out[0] = in[0].real();
    return;
  }

  // Undo rfft's split. A real signal's spectrum satisfies
  // X[h + k] = conj(X[h - k]), so the even/odd sub-spectra are
  //   E[k] = (X[k] + conj(X[h - k])) / 2
  //   O[k] = (X[k] - conj(X[h - k])) * exp(+2*pi*i*k/n) / 2
  // and Z[k] = E[k] + i*O[k] is the h-point spectrum of the packed
  // sequence z[j] = x[2j] + i*x[2j + 1]. Bin 0 pairs X[0] with X[h], both
  // taken as real, under twiddle 1. The merged spectrum is gathered from
  // the upper half of scratch_ into the lower, and the 1/h scale is applied
  // only to the out.size() samples copied out.
  Complex* merged = scratch_.data() + h_;
  const double x0 = in[0].real(), xh = in[h_].real();
  merged[0] = Complex(0.5 * (x0 + xh), 0.5 * (x0 - xh));
  simd::ops().irfft_merge(in.data(), rtwiddle_.data(), h_, merged);
  run_half(reinterpret_cast<const double*>(merged), n_, scratch_.data(),
           true);
  const auto* samples = reinterpret_cast<const double*>(scratch_.data());
  const double inv_h = 1.0 / static_cast<double>(h_);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = samples[i] * inv_h;
}

void FftPlan::packed_power(std::span<double> out, double norm2) const {
  const Complex z0 = scratch_[0];
  const double x0 = z0.real() + z0.imag();
  const double xh = z0.real() - z0.imag();
  out[0] = x0 * x0 * norm2;
  out[h_] = xh * xh * norm2;
  simd::ops().rfft_split_power(scratch_.data(), rtwiddle_.data(), h_, norm2,
                               out.data());
}

void FftPlan::power(std::span<const double> in, std::span<double> out) const {
  VIBGUARD_REQUIRE(in.size() == n_, "input size must match plan size");
  VIBGUARD_REQUIRE(out.size() == h_ + 1, "power spectrum needs n/2 + 1 bins");
  if (n_ == 1) {
    out[0] = in[0] * in[0];
    return;
  }
  const double norm = 1.0 / static_cast<double>(n_);
  run_half(in.data(), n_, scratch_.data(), false);
  packed_power(out, norm * norm);
}

void FftPlan::windowed_power(const double* in, const double* window,
                             std::span<double> out) const {
  VIBGUARD_REQUIRE(out.size() == h_ + 1, "power spectrum needs n/2 + 1 bins");
  if (n_ == 1) {
    const double x = in[0] * window[0];
    power(std::span<const double>(&x, 1), out);
    return;
  }
  // Window into the gather source, the upper half of scratch_.
  auto* samples = reinterpret_cast<double*>(scratch_.data() + h_);
  simd::multiply(in, window, samples, n_);
  const double norm = 1.0 / static_cast<double>(n_);
  run_half(samples, n_, scratch_.data(), false);
  packed_power(out, norm * norm);
}

void FftPlan::windowed_power_frames(const double* in, std::size_t hop,
                                    std::size_t frames, const double* window,
                                    double* out) const {
  const std::size_t bins = h_ + 1;
  std::size_t f = 0;
  if (n_ >= 8 && frames >= 4) {
    if (lanes_.empty()) lanes_.resize(4 * n_);
    const double norm = 1.0 / static_cast<double>(n_);
    const simd::FrameTables tables{n_, rev4_.data(), twiddles_.data(),
                                   rtwiddle_.data()};
    const simd::Ops& ops = simd::ops();
    for (; f + 4 <= frames; f += 4) {
      ops.windowed_power4(in + f * hop, hop, window, tables, norm * norm,
                          lanes_.data(), out + f * bins);
    }
  }
  for (; f < frames; ++f) {
    windowed_power(in + f * hop, window, std::span<double>(out + f * bins, bins));
  }
}

const FftPlan& get_plan(std::size_t n) {
  VIBGUARD_REQUIRE(is_pow2(n), "FFT plan size must be a power of two");
  thread_local std::unordered_map<std::size_t, std::unique_ptr<FftPlan>>
      cache;
  auto& slot = cache[n];
  if (slot == nullptr) slot = std::make_unique<FftPlan>(n);
  return *slot;
}

}  // namespace vibguard::dsp
