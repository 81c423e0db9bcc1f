#include "dsp/fft_plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <unordered_map>
#include <utility>

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

FftPlan::FftPlan(std::size_t n) : n_(n) { init(/*build_real=*/true); }

FftPlan::FftPlan(std::size_t n, bool build_real) : n_(n) { init(build_real); }

void FftPlan::init(bool build_real) {
  VIBGUARD_REQUIRE(n_ > 0, "FFT plan size must be positive");
  is_pow2_ = is_pow2(n_);
  pow2_n_ = is_pow2_ ? n_ : next_pow2(2 * n_ - 1);

  // Bit-reversed indices for the gathering first pass: rev4_[q] reverses
  // 4q over log2(pn) bits, i.e. q over log2(pn) - 2 bits, built by the
  // usual recurrence rev(i) = rev(i / 2) / 2 | (i odd ? top bit : 0).
  const std::size_t pn = pow2_n_;
  const std::size_t quarter = pn / 4;
  VIBGUARD_REQUIRE(quarter <= (std::size_t{1} << 32),
                   "FFT plan size exceeds the uint32 index table");
  rev4_.assign(quarter, 0);
  for (std::size_t q = 1; q < quarter; ++q) {
    rev4_[q] = static_cast<std::uint32_t>(
        (rev4_[q >> 1] >> 1) | ((q & 1) != 0 ? quarter >> 1 : 0));
  }

  // Per-stage twiddles for stages len = 8..pn (the len = 2 and len = 4
  // stages are multiplication-free and handled inline).
  twiddles_.clear();
  for (std::size_t len = 8; len <= pn; len <<= 1) {
    for (std::size_t j = 0; j < len / 2; ++j) {
      twiddles_.push_back(unit_root(j, len));
    }
  }

  if (!is_pow2_) {
    // Bluestein: cache the chirp w[k] = exp(-i*pi*k^2/n) and the forward
    // FFT of the convolution kernel b[k] = conj(w[|k|]), built in the
    // first half of work_.
    m_ = pow2_n_;
    chirp_.resize(n_);
    for (std::size_t k = 0; k < n_; ++k) {
      // k^2 mod 2n avoids precision loss for large k.
      const auto k2 = static_cast<double>((k * k) % (2 * n_));
      const double angle =
          -std::numbers::pi * k2 / static_cast<double>(n_);
      chirp_[k] = Complex(std::cos(angle), std::sin(angle));
    }
    work_.assign(2 * m_, Complex(0.0, 0.0));
    Complex* kernel = work_.data();
    kernel[0] = std::conj(chirp_[0]);
    for (std::size_t k = 1; k < n_; ++k) {
      kernel[k] = kernel[m_ - k] = std::conj(chirp_[k]);
    }
    bspec_.resize(m_);
    run_pow2(reinterpret_cast<const double*>(kernel), 2 * m_, bspec_.data(),
             false);
  }

  if (build_real && n_ % 2 == 0) {
    const std::size_t h = n_ / 2;
    half_ = std::unique_ptr<FftPlan>(new FftPlan(h, /*build_real=*/false));
    rtwiddle_.resize(h + 1);
    for (std::size_t k = 0; k <= h; ++k) rtwiddle_[k] = unit_root(k, n_);
  }
  if (build_real) scratch_.resize(n_ % 2 == 0 && !is_pow2_ ? n_ / 2 : n_);
}

void FftPlan::run_pow2(const double* src, std::size_t len, Complex* out,
                       bool inverse) const {
  const std::size_t n = pow2_n_;
  const simd::Ops& ops = simd::ops();

  // The bit-reversal permutation and the multiplication-free len = 2 and
  // len = 4 stages (twiddles 1 and ∓i) run fused through one dispatched
  // kernel, reading src at bit-reversed positions.
  ops.fft_gather_stage2_4(out, src, len, rev4_.data(), n, inverse);

  // Remaining stages read twiddles from the table and run fused through one
  // dispatched kernel (scalar fallback is the pre-SIMD loop).
  ops.fft_stages(out, n, twiddles_.data(), inverse);
}

void FftPlan::transform(std::span<Complex> data, bool inverse) const {
  VIBGUARD_REQUIRE(data.size() == n_, "buffer size must match plan size");
  if (is_pow2_) {
    // Out of place into the plan's buffer, then back.
    run_pow2(reinterpret_cast<const double*>(data.data()), 2 * n_,
             scratch_.data(), inverse);
    if (inverse) {
      const double inv_n = 1.0 / static_cast<double>(n_);
      for (std::size_t i = 0; i < n_; ++i) scratch_[i] *= inv_n;
    }
    std::copy_n(scratch_.data(), n_, data.data());
    return;
  }

  // Bluestein via the cached chirp. The inverse transform reuses the
  // forward chirp through DFT^-1(x) = conj(DFT(conj(x))) / n. The first
  // transform reads the n chirped samples as zero-padded to m.
  if (inverse) {
    for (Complex& x : data) x = std::conj(x);
  }
  Complex* a = work_.data();
  Complex* b = a + m_;
  const simd::Ops& ops = simd::ops();
  ops.complex_multiply_to(a, data.data(), chirp_.data(), n_);
  run_pow2(reinterpret_cast<const double*>(a), 2 * n_, b, false);
  ops.complex_multiply_to(a, b, bspec_.data(), m_);
  run_pow2(reinterpret_cast<const double*>(a), 2 * m_, b, true);
  const double inv_m = 1.0 / static_cast<double>(m_);
  for (std::size_t k = 0; k < m_; ++k) b[k] *= inv_m;
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n_);
    for (std::size_t k = 0; k < n_; ++k) {
      data[k] = std::conj(b[k] * chirp_[k]) * inv_n;
    }
  } else {
    for (std::size_t k = 0; k < n_; ++k) data[k] = b[k] * chirp_[k];
  }
}

void FftPlan::packed_forward(const double* src, std::size_t len) const {
  const std::size_t h = n_ / 2;
  if (half_->is_pow2_) {
    half_->run_pow2(src, len, scratch_.data(), false);
    return;
  }
  // A Bluestein half plan transforms in place: pack (a straight copy, as
  // complex<double> arrays are array-of-double compatible) and zero-pad.
  auto* packed = reinterpret_cast<double*>(scratch_.data());
  if (len > 0 && src != packed) {
    std::memcpy(packed, src, len * sizeof(double));
  }
  std::fill(packed + len, packed + n_, 0.0);
  half_->transform(std::span<Complex>(scratch_.data(), h), false);
}

void FftPlan::rfft(std::span<const double> in, std::span<Complex> out) const {
  VIBGUARD_REQUIRE(in.size() <= n_, "input must not exceed the plan size");
  VIBGUARD_REQUIRE(out.size() == n_ / 2 + 1,
                   "rfft output needs n/2 + 1 bins");
  const std::size_t len = in.size();
  if (n_ == 1) {
    out[0] = Complex(len == 1 ? in[0] : 0.0, 0.0);
    return;
  }
  if (n_ % 2 != 0) {
    // Odd length: no conjugate-symmetric split; run the complex path.
    std::fill(scratch_.begin(), scratch_.end(), Complex(0.0, 0.0));
    for (std::size_t i = 0; i < len; ++i) scratch_[i] = Complex(in[i], 0.0);
    transform(scratch_, false);
    for (std::size_t k = 0; k < out.size(); ++k) out[k] = scratch_[k];
    return;
  }

  // Transform adjacent real samples packed as one complex sequence of half
  // length (read in place, zero padding implicit), then split the even/odd
  // sub-spectra by conjugate symmetry:
  //   X[k] = E[k] + exp(-2*pi*i*k/n) * O[k].
  const std::size_t h = n_ / 2;
  packed_forward(in.data(), len);
  const Complex z0 = scratch_[0];
  out[0] = Complex(z0.real() + z0.imag(), 0.0);
  out[h] = Complex(z0.real() - z0.imag(), 0.0);
  simd::ops().rfft_split(scratch_.data(), rtwiddle_.data(), h, out.data());
}

void FftPlan::irfft(std::span<const Complex> in, std::span<double> out) const {
  VIBGUARD_REQUIRE(n_ == 1 || n_ % 2 == 0,
                   "irfft needs an even plan size (or 1)");
  VIBGUARD_REQUIRE(in.size() == n_ / 2 + 1, "irfft input needs n/2 + 1 bins");
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
  // taken as real, under twiddle 1. A power-of-two half plan gathers the
  // merged spectrum from the upper half of scratch_ into the lower, and its
  // 1/h scale is applied only to the out.size() samples copied out; a
  // Bluestein one transforms it in place, scaled.
  const std::size_t h = n_ / 2;
  Complex* merged = half_->is_pow2_ ? scratch_.data() + h : scratch_.data();
  const double x0 = in[0].real(), xh = in[h].real();
  merged[0] = Complex(0.5 * (x0 + xh), 0.5 * (x0 - xh));
  simd::ops().irfft_merge(in.data(), rtwiddle_.data(), h, merged);
  const auto* samples = reinterpret_cast<const double*>(scratch_.data());
  if (half_->is_pow2_) {
    half_->run_pow2(reinterpret_cast<const double*>(merged), n_,
                    scratch_.data(), true);
    const double inv_h = 1.0 / static_cast<double>(h);
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = samples[i] * inv_h;
    return;
  }
  half_->transform(std::span<Complex>(merged, h), true);
  if (!out.empty()) {
    std::memcpy(out.data(), samples, out.size() * sizeof(double));
  }
}

void FftPlan::magnitude(std::span<const double> in,
                        std::span<double> out) const {
  power(in, out);
  for (double& v : out) v = std::sqrt(v);
}

void FftPlan::packed_power(std::span<double> out, double norm2) const {
  const std::size_t h = n_ / 2;
  const Complex z0 = scratch_[0];
  const double x0 = z0.real() + z0.imag();
  const double xh = z0.real() - z0.imag();
  out[0] = x0 * x0 * norm2;
  out[h] = xh * xh * norm2;
  simd::ops().rfft_split_power(scratch_.data(), rtwiddle_.data(), h, norm2,
                               out.data());
}

void FftPlan::power(std::span<const double> in, std::span<double> out) const {
  VIBGUARD_REQUIRE(in.size() == n_, "input size must match plan size");
  VIBGUARD_REQUIRE(out.size() == n_ / 2 + 1,
                   "power spectrum needs n/2 + 1 bins");
  const double norm = 1.0 / static_cast<double>(n_);
  const double norm2 = norm * norm;
  if (n_ > 1 && n_ % 2 == 0) {
    packed_forward(in.data(), n_);
    packed_power(out, norm2);
    return;
  }
  thread_local std::vector<Complex> spec;
  spec.resize(n_ / 2 + 1);
  rfft(in, spec);
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = std::norm(spec[k]) * norm2;
  }
}

void FftPlan::windowed_power(const double* in, const double* window,
                             std::span<double> out) const {
  VIBGUARD_REQUIRE(out.size() == n_ / 2 + 1,
                   "power spectrum needs n/2 + 1 bins");
  const double norm = 1.0 / static_cast<double>(n_);
  const double norm2 = norm * norm;
  if (n_ > 1 && n_ % 2 == 0) {
    // Window into the gather source: the upper half of scratch_ for a
    // power-of-two half plan, else the packed buffer the Bluestein half
    // plan transforms in place.
    const std::size_t h = n_ / 2;
    Complex* frame = half_->is_pow2_ ? scratch_.data() + h : scratch_.data();
    auto* samples = reinterpret_cast<double*>(frame);
    simd::multiply(in, window, samples, n_);
    packed_forward(samples, n_);
    packed_power(out, norm2);
    return;
  }
  thread_local std::vector<double> frame;
  frame.resize(n_);
  simd::multiply(in, window, frame.data(), n_);
  power(frame, out);
}

void FftPlan::windowed_power_frames(const double* in, std::size_t hop,
                                    std::size_t frames, const double* window,
                                    double* out) const {
  const std::size_t bins = n_ / 2 + 1;
  std::size_t f = 0;
  if (is_pow2_ && n_ >= 8 && frames >= 4) {
    if (lanes_.empty()) lanes_.resize(4 * n_);
    const double norm = 1.0 / static_cast<double>(n_);
    const simd::FrameTables tables{n_, half_->rev4_.data(),
                                   half_->twiddles_.data(), rtwiddle_.data()};
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
  thread_local std::unordered_map<std::size_t, std::unique_ptr<FftPlan>>
      cache;
  auto& slot = cache[n];
  if (slot == nullptr) slot = std::make_unique<FftPlan>(n);
  return *slot;
}

}  // namespace vibguard::dsp
