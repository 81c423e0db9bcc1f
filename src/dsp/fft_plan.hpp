// Reusable FFT plans.
//
// An FftPlan precomputes everything about a transform size that the naive
// path recomputes on every call: a table of bit-reversed indices (one
// uint32 per four points), per-stage twiddle factors, and — for
// non-power-of-two sizes — the Bluestein chirp sequence and the spectrum of
// its convolution kernel. There is no bit-reversal swap pass: the first
// pass of every power-of-two transform reads its input at bit-reversed
// positions, out of place, and runs the len = 2 and len = 4 butterflies in
// registers (simd::Ops::fft_gather_stage2_4). Plans also provide a
// real-input transform (rfft) and its inverse (irfft) that run an even-N
// real FFT through an N/2-point complex one, roughly halving the work of
// every magnitude/power-spectrum call and of real-signal filtering; rfft
// gathers straight from the caller's samples, zero padding included.
//
// Every buffer a plan owns is sized when the plan is built, apart from the
// STFT's four-frame lane buffer, which a plan sizes the first time it runs
// windowed_power_frames; no call grows one.
//
// Plans are cached per thread by size (get_plan), so hot loops such as the
// STFT pay the setup cost once per (thread, size) and the cache needs no
// locking.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/aligned.hpp"

namespace vibguard::dsp {

using Complex = std::complex<double>;

/// Precomputed transform of one fixed size. A plan's scratch buffers make it
/// safe for repeated use from one thread but not for concurrent calls;
/// get_plan hands each thread its own instance.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// In-place complex DFT of exactly size() points (Bluestein for
  /// non-power-of-two sizes). `inverse` selects the inverse transform
  /// (scaled by 1/N).
  void transform(std::span<Complex> data, bool inverse) const;

  /// Real-input DFT: writes the one-sided spectrum X[0..n/2] (n/2 + 1 bins)
  /// of the size()-point input. An input shorter than size() is treated as
  /// zero-padded to size(). Even sizes run through an n/2-point complex
  /// transform; odd sizes fall back to the complex path.
  void rfft(std::span<const double> in, std::span<Complex> out) const;

  /// Inverse of rfft for size 1 and even sizes: reads the one-sided
  /// spectrum X[0..n/2] of a real signal (the imaginary parts of X[0] and
  /// X[n/2] are ignored) and writes the first out.size() <= size() samples
  /// of its inverse DFT (scaled by 1/N, like transform(.., true)). Runs
  /// through the same n/2-point complex plan as rfft.
  void irfft(std::span<const Complex> in, std::span<double> out) const;

  /// One-sided magnitude spectrum |X[k]|/n into `out` (n/2 + 1 bins),
  /// matching magnitude_spectrum's normalization.
  void magnitude(std::span<const double> in, std::span<double> out) const;

  /// One-sided power spectrum (|X[k]|/n)^2 into `out` (n/2 + 1 bins) —
  /// the STFT inner loop's quantity, computed without the square root.
  void power(std::span<const double> in, std::span<double> out) const;

  /// Fused STFT frame kernel: power spectrum of in[i] * window[i] without
  /// materializing the windowed frame (in and window both size() long).
  void windowed_power(const double* in, const double* window,
                      std::span<double> out) const;

  /// Power spectra of `frames` STFT frames: frame f is the size() samples
  /// at in + f * hop, and its n/2 + 1 bins go to out + f * (n/2 + 1). Each
  /// row equals windowed_power of its frame bit for bit. Power-of-two sizes
  /// of at least 8 run four frames at a time through
  /// simd::Ops::windowed_power4 (one frame per AVX2 lane) and the last
  /// frames % 4 one by one; the first four-frame call sizes the plan's lane
  /// buffer (4 * size() doubles), which is never resized.
  void windowed_power_frames(const double* in, std::size_t hop,
                             std::size_t frames, const double* window,
                             double* out) const;

 private:
  // The nested rfft half plan skips real-input setup and the buffer: a
  // power-of-two half plan only ever runs run_pow2 into its parent's
  // buffer, a Bluestein one only transform() (which uses work_).
  FftPlan(std::size_t n, bool build_real);
  void init(bool build_real);

  /// The power-of-two transform (size pow2_n_: n_ itself when it is a power
  /// of two, else the Bluestein work size m_) of the real array `src` of
  /// `len` <= 2 * pow2_n_ doubles, read as complex pairs and zero-padded,
  /// written out of place to `out` (pow2_n_ entries). The first pass
  /// gathers the input in bit-reversed order, so no swap pass runs. The
  /// inverse is unscaled: each caller applies 1/pow2_n_ itself, irfft only
  /// to the samples it keeps.
  void run_pow2(const double* src, std::size_t len, Complex* out,
                bool inverse) const;

  /// Even sizes: the n/2-point transform of the real input `src` (`len` <=
  /// n doubles, zero-padded to n, read as packed even/odd pairs) into
  /// scratch_[0, n/2) — the real-input core of rfft/power/windowed_power.
  void packed_forward(const double* src, std::size_t len) const;

  /// Writes one-sided power-spectrum bins (scaled by norm2) into out from
  /// the packed spectrum packed_forward left in scratch_.
  void packed_power(std::span<double> out, double norm2) const;

  std::size_t n_ = 0;
  bool is_pow2_ = false;

  // Power-of-two machinery (for n_ or, when Bluestein, for m_). The
  // Complex tables are 64-byte aligned: the SIMD butterfly/split kernels
  // stream them every transform.
  std::size_t pow2_n_ = 0;
  std::vector<std::uint32_t> rev4_;  ///< bit-reversal of 4q, q < pow2_n_/4
  AlignedVector<Complex> twiddles_;  ///< stages concatenated: len=8,16,...,n

  // Bluestein machinery (non-power-of-two sizes).
  std::size_t m_ = 0;                ///< next_pow2(2n - 1) work size
  AlignedVector<Complex> chirp_;     ///< w[k] = exp(-i*pi*k^2/n)
  AlignedVector<Complex> bspec_;     ///< forward FFT of the chirp kernel b
  /// Two length-m_ halves: each run_pow2 gathers from the first into the
  /// second.
  mutable AlignedVector<Complex> work_;

  // Real-input machinery (even n_ only).
  std::unique_ptr<FftPlan> half_;       ///< n_/2-point complex plan
  AlignedVector<Complex> rtwiddle_;     ///< exp(-2*pi*i*k/n), k = 0..n/2

  /// Top-level plans' buffer, sized once at construction. Power-of-two n_:
  /// n_ entries — transform()'s stage target; for rfft and friends the
  /// packed spectrum in [0, n/2) and the gather source (irfft's merged
  /// spectrum, windowed_power's frame) in [n/2, n). Other even n_: the n/2
  /// packed pairs the Bluestein half plan transforms in place. Odd n_: the
  /// n_ complex samples of rfft's fallback.
  mutable AlignedVector<Complex> scratch_;

  /// windowed_power_frames' four-frame scratch: empty until that first
  /// runs on this plan, then 4 * n_ doubles.
  mutable AlignedVector<double> lanes_;
};

/// Thread-local size-keyed plan cache. The returned reference stays valid
/// for the calling thread's lifetime.
const FftPlan& get_plan(std::size_t n);

}  // namespace vibguard::dsp
