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

  // Bit-reversal permutation, stored as the swap pairs (i < j) the in-place
  // pass applies, so the hot loop touches each pair exactly once.
  const std::size_t pn = pow2_n_;
  bitrev_.clear();
  for (std::size_t i = 1, j = 0; i < pn; ++i) {
    std::size_t bit = pn >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      bitrev_.push_back(i);
      bitrev_.push_back(j);
    }
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
    // FFT of the convolution kernel b[k] = conj(w[|k|]).
    m_ = pow2_n_;
    chirp_.resize(n_);
    for (std::size_t k = 0; k < n_; ++k) {
      // k^2 mod 2n avoids precision loss for large k.
      const auto k2 = static_cast<double>((k * k) % (2 * n_));
      const double angle =
          -std::numbers::pi * k2 / static_cast<double>(n_);
      chirp_[k] = Complex(std::cos(angle), std::sin(angle));
    }
    bspec_.assign(m_, Complex(0.0, 0.0));
    bspec_[0] = std::conj(chirp_[0]);
    for (std::size_t k = 1; k < n_; ++k) {
      bspec_[k] = bspec_[m_ - k] = std::conj(chirp_[k]);
    }
    run_pow2(bspec_, false);
    work_.resize(m_);
  }

  if (build_real && n_ % 2 == 0) {
    const std::size_t h = n_ / 2;
    half_ = std::unique_ptr<FftPlan>(new FftPlan(h, /*build_real=*/false));
    rtwiddle_.resize(h + 1);
    for (std::size_t k = 0; k <= h; ++k) rtwiddle_[k] = unit_root(k, n_);
    rscratch_.resize(h);
  }
}

void FftPlan::run_pow2(std::span<Complex> data, bool inverse) const {
  const std::size_t n = data.size();
  Complex* d = data.data();
  for (std::size_t p = 0; p + 1 < bitrev_.size(); p += 2) {
    std::swap(d[bitrev_[p]], d[bitrev_[p + 1]]);
  }

  const simd::Ops& ops = simd::ops();

  // The len = 2 and len = 4 stages have multiplication-free twiddles (1 and
  // ∓i) and run fused through one dispatched kernel.
  ops.fft_stage2_4(d, n, inverse);

  // Remaining stages read twiddles from the table and run fused through one
  // dispatched kernel (scalar fallback is the pre-SIMD loop).
  ops.fft_stages(d, n, twiddles_.data(), inverse);

  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) d[i] *= inv_n;
  }
}

void FftPlan::transform(std::span<Complex> data, bool inverse) const {
  VIBGUARD_REQUIRE(data.size() == n_, "buffer size must match plan size");
  if (is_pow2_) {
    run_pow2(data, inverse);
    return;
  }

  // Bluestein via the cached chirp. The inverse transform reuses the
  // forward chirp through DFT^-1(x) = conj(DFT(conj(x))) / n.
  if (inverse) {
    for (Complex& x : data) x = std::conj(x);
  }
  std::fill(work_.begin() + static_cast<std::ptrdiff_t>(n_), work_.end(),
            Complex(0.0, 0.0));
  const simd::Ops& ops = simd::ops();
  ops.complex_multiply_to(work_.data(), data.data(), chirp_.data(), n_);
  run_pow2(work_, false);
  ops.complex_multiply_to(work_.data(), work_.data(), bspec_.data(), m_);
  run_pow2(work_, true);
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n_);
    for (std::size_t k = 0; k < n_; ++k) {
      data[k] = std::conj(work_[k] * chirp_[k]) * inv_n;
    }
  } else {
    for (std::size_t k = 0; k < n_; ++k) data[k] = work_[k] * chirp_[k];
  }
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
    rscratch_.assign(n_, Complex(0.0, 0.0));
    for (std::size_t i = 0; i < len; ++i) rscratch_[i] = Complex(in[i], 0.0);
    transform(rscratch_, false);
    for (std::size_t k = 0; k < out.size(); ++k) out[k] = rscratch_[k];
    return;
  }

  // Pack adjacent real samples into one complex sequence of half length
  // (a straight copy: complex<double> arrays are array-of-double
  // compatible), zero the padding, transform, then split the even/odd
  // sub-spectra by conjugate symmetry:
  //   X[k] = E[k] + exp(-2*pi*i*k/n) * O[k].
  const std::size_t h = n_ / 2;
  rscratch_.resize(h);
  auto* packed = reinterpret_cast<double*>(rscratch_.data());
  if (len > 0) std::memcpy(packed, in.data(), len * sizeof(double));
  std::fill(packed + len, packed + n_, 0.0);
  half_->transform(rscratch_, false);

  const Complex z0 = rscratch_[0];
  out[0] = Complex(z0.real() + z0.imag(), 0.0);
  out[h] = Complex(z0.real() - z0.imag(), 0.0);
  simd::ops().rfft_split(rscratch_.data(), rtwiddle_.data(), h, out.data());
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
  // taken as real, under twiddle 1.
  const std::size_t h = n_ / 2;
  rscratch_.resize(h);
  const double x0 = in[0].real(), xh = in[h].real();
  rscratch_[0] = Complex(0.5 * (x0 + xh), 0.5 * (x0 - xh));
  simd::ops().irfft_merge(in.data(), rtwiddle_.data(), h, rscratch_.data());
  half_->transform(rscratch_, true);
  if (!out.empty()) {
    std::memcpy(out.data(), reinterpret_cast<const double*>(rscratch_.data()),
                out.size() * sizeof(double));
  }
}

void FftPlan::magnitude(std::span<const double> in,
                        std::span<double> out) const {
  power(in, out);
  for (double& v : out) v = std::sqrt(v);
}

void FftPlan::packed_power(std::span<double> out, double norm2) const {
  const std::size_t h = n_ / 2;
  half_->transform(rscratch_, false);
  const Complex z0 = rscratch_[0];
  const double x0 = z0.real() + z0.imag();
  const double xh = z0.real() - z0.imag();
  out[0] = x0 * x0 * norm2;
  out[h] = xh * xh * norm2;
  simd::ops().rfft_split_power(rscratch_.data(), rtwiddle_.data(), h, norm2,
                               out.data());
}

void FftPlan::power(std::span<const double> in, std::span<double> out) const {
  VIBGUARD_REQUIRE(in.size() == n_, "input size must match plan size");
  VIBGUARD_REQUIRE(out.size() == n_ / 2 + 1,
                   "power spectrum needs n/2 + 1 bins");
  const double norm = 1.0 / static_cast<double>(n_);
  const double norm2 = norm * norm;
  if (n_ > 1 && n_ % 2 == 0) {
    // Packing adjacent real samples into complex pairs is a straight copy.
    const std::size_t h = n_ / 2;
    rscratch_.resize(h);
    std::memcpy(reinterpret_cast<double*>(rscratch_.data()), in.data(),
                n_ * sizeof(double));
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
    // Window while packing: the windowed frame never hits memory. A
    // complex<double> array is array-of-double compatible, so the packed
    // buffer is just the elementwise product written in place.
    const std::size_t h = n_ / 2;
    rscratch_.resize(h);
    simd::multiply(in, window, reinterpret_cast<double*>(rscratch_.data()),
                   n_);
    packed_power(out, norm2);
    return;
  }
  thread_local std::vector<double> frame;
  frame.resize(n_);
  simd::multiply(in, window, frame.data(), n_);
  power(frame, out);
}

const FftPlan& get_plan(std::size_t n) {
  thread_local std::unordered_map<std::size_t, std::unique_ptr<FftPlan>>
      cache;
  auto& slot = cache[n];
  if (slot == nullptr) slot = std::make_unique<FftPlan>(n);
  return *slot;
}

}  // namespace vibguard::dsp
