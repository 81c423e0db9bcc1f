// Digital filters: biquad IIR sections, windowed-sinc FIR design, and
// FFT-based zero-phase filtering with arbitrary frequency-gain curves.
//
// The gain-curve filter is the workhorse of the physical simulation: barrier
// transmission, loudspeaker/microphone responses, and accelerometer coupling
// are all specified as |H(f)| curves and applied in the frequency domain.
// A signal of n samples is zero-padded to gain_fft_size(n) (the next power
// of two), run through a real FFT, scaled on the one-sided grid and inverse
// transformed. Hot callers sample their curve once per grid into a
// per-thread cached table (cached_gain_table) instead of re-evaluating it
// on every call.
#pragma once

#include <array>
#include <complex>
#include <cstddef>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "common/signal.hpp"

namespace vibguard::dsp {

/// Direct-form-II-transposed biquad section.
class Biquad {
 public:
  /// Coefficients normalized so a0 == 1.
  Biquad(double b0, double b1, double b2, double a1, double a2);

  /// RBJ-cookbook second-order Butterworth-style low-pass.
  static Biquad low_pass(double cutoff_hz, double sample_rate, double q);

  /// RBJ-cookbook second-order Butterworth-style high-pass.
  static Biquad high_pass(double cutoff_hz, double sample_rate, double q);

  /// Processes one sample, updating internal state.
  double process(double x);

  /// Processes a buffer in place.
  void process(std::span<double> xs);

  /// Clears internal state.
  void reset();

  /// Magnitude response at normalized angular frequency w = 2*pi*f/fs.
  double magnitude_response(double omega) const;

 private:
  double b0_, b1_, b2_, a1_, a2_;
  double z1_ = 0.0, z2_ = 0.0;
};

/// Cascade of biquads forming a higher-order Butterworth filter.
class ButterworthFilter {
 public:
  enum class Kind { kLowPass, kHighPass };

  /// `order` must be even and >= 2 (cascaded second-order sections).
  ButterworthFilter(Kind kind, std::size_t order, double cutoff_hz,
                    double sample_rate);

  double process(double x);
  void process(std::span<double> xs);

  /// Applies the filter to a copy of `in` (stateless convenience).
  Signal filtered(const Signal& in) const;

  void reset();

 private:
  std::vector<Biquad> sections_;
};

/// Windowed-sinc low-pass FIR taps (Hamming window, odd length).
std::vector<double> design_fir_lowpass(double cutoff_hz, double sample_rate,
                                       std::size_t num_taps);

/// Linear convolution of `x` with `taps`, truncated to |x| outputs with
/// group-delay compensation (output aligned with input).
std::vector<double> fir_filter(std::span<const double> x,
                               std::span<const double> taps);

/// FFT size of the zero-phase gain filter for an n-sample signal: the next
/// power of two >= n, so one-sided bin k (k = 0..m/2) sits at k * fs / m.
std::size_t gain_fft_size(std::size_t n);

/// Zero-phase filter applying an arbitrary magnitude gain curve.
/// `gain(f_hz)` is sampled on the gain_fft_size grid; the signal is
/// transformed, scaled bin-by-bin and inverse-transformed.
Signal apply_gain_curve(const Signal& in,
                        const std::function<double(double)>& gain);

/// Allocation-free overload: writes the filtered signal into `out` and uses
/// `work` as the one-sided spectrum buffer, both reusing existing capacity.
/// `out` may alias `in` (in-place filtering); `work` must not be read
/// afterwards.
void apply_gain_curve(const Signal& in,
                      const std::function<double(double)>& gain, Signal& out,
                      std::vector<std::complex<double>>& work);

/// Table overload: `gains` is the curve already sampled on the filter grid
/// (gain_fft_size(n) / 2 + 1 values, e.g. from cached_gain_table).
/// Bit-identical to the std::function overload for the same curve.
void apply_gain_curve(const Signal& in, std::span<const double> gains,
                      Signal& out, std::vector<std::complex<double>>& work);

/// The two halves of the table overload, for callers that also want the
/// input's spectrum. gain_curve_spectrum writes the one-sided spectrum of
/// `in` zero-padded to gain_fft_size(in.size()) into `spectrum`;
/// apply_gains_to_spectrum scales that spectrum by `gains` in place and
/// writes the first `n` samples of its inverse transform into `out` at
/// `sample_rate` (`out` may alias the signal the spectrum came from).
void gain_curve_spectrum(const Signal& in,
                         std::vector<std::complex<double>>& spectrum);
void apply_gains_to_spectrum(std::vector<std::complex<double>>& spectrum,
                             std::span<const double> gains, std::size_t n,
                             double sample_rate, Signal& out);

/// apply_gains_to_spectrum followed by decimate_alias_into(.., target_rate,
/// out): the gain filter's output point-sampled at `target_rate` (<=
/// sample_rate) with no anti-alias filter — floor(n / R) samples taken at
/// positions i * R, R = sample_rate / target_rate. When R is an integer
/// with a power-of-two factor F > 1 (at most m / 2), only every F-th
/// filtered sample can be read, so the gained spectrum is folded onto
/// m / F bins (Z[k] = sum_r Y[k + r*m/F] / F, Y Hermitian-extended) and
/// one m/F-point inverse transform yields exactly those samples: the
/// result matches the two-step path to rounding. Otherwise (F = 1) this is
/// the two-step path, bit for bit. Consumes `spectrum`; `work` is staging
/// space (its contents are unspecified afterwards).
void apply_gains_and_decimate(std::vector<std::complex<double>>& spectrum,
                              std::span<const double> gains, std::size_t n,
                              double sample_rate, double target_rate,
                              Signal& out, Signal& work);

/// Identifies a gain curve by value: a family name plus the parameters
/// that fully define the curve within that family. Two equal keys must
/// describe the same |H(f)|. The cache stores the view, so `family` must
/// be a string literal (or otherwise outlive the thread).
struct GainCurveKey {
  std::string_view family;
  std::array<double, 3> params{};

  bool operator==(const GainCurveKey&) const = default;
};

/// Per-thread cache of gain curves sampled on the filter grid of an
/// n-sample signal at `sample_rate`: gain(k * fs / m) for k = 0..m/2 with
/// m = gain_fft_size(n). Tables are keyed by (key, m, sample_rate) — never
/// by the address of the object owning the curve — and computed on first
/// use; a hit neither evaluates `gain` nor allocates. The cache holds a
/// bounded number of tables (least recently used evicted first). The span
/// stays valid until the next cached_gain_table call on the same thread.
std::span<const double> cached_gain_table(
    const GainCurveKey& key, std::size_t n, double sample_rate,
    const std::function<double(double)>& gain);

}  // namespace vibguard::dsp
