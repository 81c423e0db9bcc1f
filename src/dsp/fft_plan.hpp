// Reusable power-of-two real-FFT plans.
//
// An FftPlan of size n (a power of two) runs every real transform the DSP
// layer needs — rfft, irfft and the STFT's power spectra — through one
// n/2-point complex transform: adjacent real samples are packed as complex
// pairs and the even/odd sub-spectra are split (or, for irfft, merged) by
// conjugate symmetry. The plan precomputes what that transform reads: a
// table of bit-reversed indices (one uint32 per four points), per-stage
// twiddle factors, and the split twiddles exp(-2*pi*i*k/n). There is no
// bit-reversal swap pass: the first pass reads its input at bit-reversed
// positions, out of place, and runs the len = 2 and len = 4 butterflies in
// registers (simd::Ops::fft_gather_stage2_4). rfft gathers straight from
// the caller's samples, zero padding included.
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
#include <span>
#include <vector>

#include "common/aligned.hpp"

namespace vibguard::dsp {

using Complex = std::complex<double>;

/// Precomputed real transform of one fixed power-of-two size. A plan's
/// scratch buffers make it safe for repeated use from one thread but not
/// for concurrent calls; get_plan hands each thread its own instance.
class FftPlan {
 public:
  /// `n` must be a power of two (InvalidArgument otherwise).
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// Real-input DFT: writes the one-sided spectrum X[0..n/2] (n/2 + 1 bins)
  /// of the size()-point input. An input shorter than size() is treated as
  /// zero-padded to size().
  void rfft(std::span<const double> in, std::span<Complex> out) const;

  /// Inverse of rfft: reads the one-sided spectrum X[0..n/2] of a real
  /// signal (the imaginary parts of X[0] and X[n/2] are ignored) and writes
  /// the first out.size() <= size() samples of its inverse DFT, scaled by
  /// 1/n.
  void irfft(std::span<const Complex> in, std::span<double> out) const;

  /// One-sided power spectrum (|X[k]|/n)^2 into `out` (n/2 + 1 bins) —
  /// the STFT inner loop's quantity, computed without the square root.
  void power(std::span<const double> in, std::span<double> out) const;

  /// Fused STFT frame kernel: power spectrum of in[i] * window[i] without
  /// materializing the windowed frame (in and window both size() long).
  void windowed_power(const double* in, const double* window,
                      std::span<double> out) const;

  /// Power spectra of `frames` STFT frames: frame f is the size() samples
  /// at in + f * hop, and its n/2 + 1 bins go to out + f * (n/2 + 1). Each
  /// row equals windowed_power of its frame bit for bit. Sizes of at least
  /// 8 run four frames at a time through simd::Ops::windowed_power4 (one
  /// frame per AVX2 lane) and the last frames % 4 one by one; the first
  /// four-frame call sizes the plan's lane buffer (4 * size() doubles),
  /// which is never resized.
  void windowed_power_frames(const double* in, std::size_t hop,
                             std::size_t frames, const double* window,
                             double* out) const;

 private:
  /// The h = n/2-point complex transform of the real array `src` of `len`
  /// <= n doubles, read as complex pairs and zero-padded, written out of
  /// place to `out` (h entries). The first pass gathers the input in
  /// bit-reversed order, so no swap pass runs. The inverse is unscaled:
  /// irfft applies 1/h only to the samples it keeps.
  void run_half(const double* src, std::size_t len, Complex* out,
                bool inverse) const;

  /// Writes one-sided power-spectrum bins (scaled by norm2) into out from
  /// the packed spectrum run_half left in scratch_.
  void packed_power(std::span<double> out, double norm2) const;

  std::size_t n_ = 0;
  std::size_t h_ = 0;  ///< n_ / 2, the complex transform's size

  // The Complex tables are 64-byte aligned: the SIMD butterfly/split
  // kernels stream them every transform.
  std::vector<std::uint32_t> rev4_;  ///< bit-reversal of 4q, q < h/4
  AlignedVector<Complex> twiddles_;  ///< stages concatenated: len=8,16,...,h
  AlignedVector<Complex> rtwiddle_;  ///< exp(-2*pi*i*k/n), k = 0..h

  /// n_ entries: the packed spectrum in [0, h) and the gather source
  /// (irfft's merged spectrum, windowed_power's frame) in [h, n).
  mutable AlignedVector<Complex> scratch_;

  /// windowed_power_frames' four-frame scratch: empty until that first
  /// runs on this plan, then 4 * n_ doubles.
  mutable AlignedVector<double> lanes_;
};

/// Thread-local size-keyed plan cache; `n` must be a power of two. The
/// returned reference stays valid for the calling thread's lifetime.
const FftPlan& get_plan(std::size_t n);

}  // namespace vibguard::dsp
