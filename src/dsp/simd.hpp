// Runtime-dispatched SIMD kernels for the DSP hot paths.
//
// Every vectorizable inner loop in the DSP layer (FFT butterflies, the
// four-frame STFT kernel, the spectrogram max and divide, mel filterbank/DCT
// dot products, the resampler's linear interpolation and FIR convolution,
// the fused 2-D Pearson moments, the speaker's tanh soft clip) and the
// signal-quality census's scan is routed through one of the kernel entry
// points below. Each entry point dispatches through a per-process table of
// function pointers selected once at first use:
//
//   - scalar   : always compiled; the reference every other level is held
//                to (scalar ≡ auto). Apart from soft_clip, which replaced a
//                std::tanh loop with an approximation every level shares,
//                these are the pre-SIMD loops verbatim (fft_gather_stage2_4
//                runs the pre-SIMD len = 2 / len = 4 butterflies, but on
//                inputs it gathers in bit-reversed order instead of after a
//                separate swap pass; windowed_power4 is the per-frame
//                sequence four times; census_plain's block test is new, but
//                on the samples it passes it performs the census loop's own
//                sums in its order).
//   - avx2     : x86-64 with AVX2+FMA, compiled in its own translation unit
//                (simd_avx2.cpp) with -mavx2 -mfma so the rest of the binary
//                stays baseline-ISA; selected only when cpuid reports both
//                features.
//   - neon     : aarch64 (NEON is baseline there); vectorizes the reduction
//                kernels, scalar for the rest.
//
// The VIBGUARD_SIMD environment variable (scalar|avx2|neon|auto) overrides
// auto-detection — the differential fuzz harness uses it (and set_level) to
// cross-check every dispatch level against the scalar reference.
//
// Numerical contract: kernels that map each output to an independent
// expression (multiply, divide, butterfly_stage, fft_gather_stage2_4,
// fft_stages, windowed_power4, rfft_split_power, rfft_split, irfft_merge,
// linear_interp, soft_clip) are bit-identical across all levels — the
// vector lanes perform the same operations in the same order as the scalar
// code, and the SIMD translation units disable FP contraction.
// windowed_power4 runs one STFT frame per vector lane, each lane the
// per-frame operation sequence. Three reductions are bit-identical
// too, because their result does not depend on the order they are taken
// in: max_value (the largest positive value, else +0.0), count_clipped (an
// integer count) and census_plain (its sums stay strictly left to right in
// every level; only the event test and the peak are vector operations).
// The other reduction kernels (dot, dot_reverse, pearson_moments)
// reassociate their accumulation (vector lanes + FMA) and agree with scalar
// only to ULP-scaled tolerance; callers needing cross-level bit-identity
// must not rely on them.
#pragma once

#include <atomic>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace vibguard::dsp::simd {

using Complex = std::complex<double>;

enum class Level {
  kScalar = 0,
  kNeon = 1,
  kAvx2 = 2,
};

/// Human-readable level name ("scalar", "neon", "avx2").
const char* level_name(Level level);

/// Five raw moments of a paired sample, accumulated in one pass:
/// sum(a), sum(b), sum(a^2), sum(b^2), sum(a*b).
struct PearsonMoments {
  double sa = 0.0;
  double sb = 0.0;
  double saa = 0.0;
  double sbb = 0.0;
  double sab = 0.0;
};

/// Running state of the quality census's fast path (census_plain).
struct CensusSums {
  double sum = 0.0;     ///< sum of x, strictly left to right
  double sum_sq = 0.0;  ///< sum of x * x, strictly left to right
  double peak = 0.0;    ///< max |x|
};

/// The tables an n-point STFT frame transform reads (n = 2h, h a power of
/// two >= 4): the plan's h-point transform tables and its real split's.
struct FrameTables {
  std::size_t n = 0;
  const std::uint32_t* rev4 = nullptr;  ///< bit-reversal table, h/4 entries
  const Complex* tw = nullptr;   ///< stage twiddles, h-4 entries
  const Complex* rtw = nullptr;  ///< exp(-2*pi*i*k/n), k = 0..h
};

/// The dispatch table: one function pointer per vectorized kernel. All
/// pointers are always valid (levels without a vector implementation of a
/// kernel point at the scalar one).
struct Ops {
  Level level;

  /// out[i] = a[i] * b[i] for i in [0, n). out may alias a or b.
  void (*multiply)(const double* a, const double* b, double* out,
                   std::size_t n);

  /// One radix-2 FFT stage over `half` butterflies:
  ///   v     = hi[j] * w_j   (w_j = tw[j], conjugated when `inverse`)
  ///   lo[j] = lo[j] + v,  hi[j] = lo[j] - v
  void (*butterfly_stage)(Complex* lo, Complex* hi, const Complex* tw,
                          std::size_t half, bool inverse);

  /// The first pass of an n-point power-of-two FFT, out of place: reads
  /// the input in bit-reversed order and runs the multiplication-free
  /// len = 2 and len = 4 stages on it in registers (twiddles 1 and ∓i, so
  /// the butterflies reduce to adds/subs and a re/im swap). `src` is a real
  /// array of `len` <= 2n doubles read as n complex pairs (pair p is
  /// src[2p] + i*src[2p + 1]); doubles at or past `len` read as +0.0, so a
  /// short source is zero-padded and an odd `len` half-fills its last pair.
  /// For each q < n/4, r = rev4[q] is the bit-reversal of 4q over log2(n)
  /// bits, and pairs r, r + n/2, r + n/4 and r + 3n/4 give out[4q..4q+3].
  /// n = 1 and n = 2 need no table (their bit-reversal is the identity).
  /// `out` (n entries) must not overlap `src`.
  void (*fft_gather_stage2_4)(Complex* out, const double* src,
                              std::size_t len, const std::uint32_t* rev4,
                              std::size_t n, bool inverse);

  /// All remaining radix-2 stages (len = 8 .. n) over the whole buffer.
  /// `tw` is the plan's twiddle table laid out stage-major: half entries for
  /// len = 8 first, then len = 16, and so on (n - 4 entries total). One
  /// dispatch call per transform instead of one per butterfly block — the
  /// per-block loop runs inside the kernel so the butterfly inlines.
  void (*fft_stages)(Complex* d, std::size_t n, const Complex* tw,
                     bool inverse);

  /// Power spectra of four STFT frames at once: frame l < 4 is the n
  /// samples at in + l*hop, and its n/2 + 1 bins go to out + l*(n/2 + 1).
  /// Each frame's bins equal FftPlan::windowed_power's bit for bit: window
  /// multiply, the h-point transform of the packed pairs (fft_gather_stage2_4
  /// then fft_stages, forward), the split to power scaled by norm2. `lanes`
  /// is 4n doubles of 32-byte aligned scratch. The scalar kernel runs the
  /// four frames one after another; the AVX2 one runs one frame per lane.
  void (*windowed_power4)(const double* in, std::size_t hop,
                          const double* window, const FrameTables& tables,
                          double norm2, double* lanes, double* out);

  /// Conjugate-symmetric split of a packed half-length real-FFT spectrum
  /// straight into one-sided power bins k = 1..h-1:
  ///   even  = 0.5 * (z[k] + conj(z[h-k]))
  ///   odd   = (0, -0.5) * (z[k] - conj(z[h-k]))
  ///   X     = even + rtw[k] * odd
  ///   out[k] = |X|^2 * norm2
  /// Bins 0 and h are the caller's (they need only z[0]).
  void (*rfft_split_power)(const Complex* z, const Complex* rtw,
                           std::size_t h, double norm2, double* out);
  /// The same split keeping the complex bins (the rfft output), for
  /// k = 1..h-1: out[k] = even + rtw[k] * odd. `out` must not alias `z`.
  void (*rfft_split)(const Complex* z, const Complex* rtw, std::size_t h,
                     Complex* out);
  /// The inverse split (irfft): from a one-sided spectrum x[0..h], the
  /// packed half-length spectrum bins k = 1..h-1:
  ///   e = 0.5 * (x[k] + conj(x[h-k])),  d = 0.5 * (x[k] - conj(x[h-k]))
  ///   o = d * conj(rtw[k]) = (dr*wr + di*wi, di*wr - dr*wi)
  ///   out[k] = e + i*o = (er - oi, ei + or)
  /// Bin 0 is the caller's. `out` must not alias `x`.
  void (*irfft_merge)(const Complex* x, const Complex* rtw, std::size_t h,
                      Complex* out);

  /// sum(a[i] * b[i]) for i in [0, n). Reduction: level-dependent rounding.
  double (*dot)(const double* a, const double* b, std::size_t n);

  /// sum(taps[t] * x[-t]) for t in [0, n) — the FIR convolution step, with
  /// x pointing at the newest sample. Reduction: level-dependent rounding.
  double (*dot_reverse)(const double* taps, const double* x, std::size_t n);

  /// Linear interpolation at a fixed rate ratio:
  ///   pos = i * ratio; lo = floor(pos); hi = min(lo + 1, in_size - 1)
  ///   out[i] = in[lo] * (1 - frac) + in[hi] * frac
  /// Requires floor((n - 1) * ratio) < in_size (the resampler's invariant).
  void (*linear_interp)(const double* in, std::size_t in_size, double ratio,
                        double* out, std::size_t n);

  /// Fused five-moment accumulation over paired samples. Reduction:
  /// level-dependent rounding.
  PearsonMoments (*pearson_moments)(const double* a, const double* b,
                                    std::size_t n);

  /// std::max(best, x[i]) folded over i in [0, n) from best = +0.0: the
  /// largest positive value, else +0.0 (NaN and -0.0 never win).
  double (*max_value)(const double* x, std::size_t n);

  /// x[i] = x[i] / d for i in [0, n) (IEEE division, not a reciprocal).
  void (*divide)(double* x, std::size_t n, double d);

  /// The quality census's fast path (core::StreamingCensus::update): walks
  /// x[0..n) in blocks of four and stops before the first block holding an
  /// event — a non-finite sample, |x| <= zero_eps, or x == the sample
  /// before it (`prev` before x[0]). Over the blocks it passes it folds
  /// sum += x and sum_sq += x * x strictly left to right and peak =
  /// max(peak, |x|) into `acc`, and returns the samples passed (a multiple
  /// of four).
  std::size_t (*census_plain)(const double* x, std::size_t n, double prev,
                              double zero_eps, CensusSums& acc);

  /// Number of finite x[i] with |x[i]| >= level (the clipping census).
  std::size_t (*count_clipped)(const double* x, std::size_t n, double level);

  /// Soft clip in place: x[i] = tanh(drive * x[i] / peak) * scale, where
  /// the caller passes scale = peak / std::tanh(drive). tanh is the shared
  /// approximation spelled out in detail::tanh_approx (relative error
  /// below 1e-15 against std::tanh; ±inf -> ±1, NaN -> NaN).
  void (*soft_clip)(double* x, std::size_t n, double drive, double peak,
                    double scale);
};

namespace detail {
extern std::atomic<const Ops*> g_ops;
const Ops* resolve();

// fft_gather_stage2_4's zero-padded source: the address of complex pair p
// of `len` real doubles. A whole pair is read in place; the half-filled
// last pair of an odd `len` reads a copy of its sample beside +0.0; pairs
// past the end read +0.0 twice. The choice is two selects on the index, so
// the bit-reversed walk over a padded source does not mispredict branches
// and a whole source pays nothing measurable for the check.
class PaddedPairs {
 public:
  PaddedPairs(const double* src, std::size_t len) : src_(src), len_(len) {
    if (len % 2 != 0) pad_[0] = src[len - 1];
  }
  const double* at(std::size_t p) const {
    const std::size_t i = 2 * p;
    const double* pad = i < len_ ? pad_ : pad_ + 2;
    return i + 1 < len_ ? src_ + i : pad;
  }

 private:
  const double* src_;
  std::size_t len_;
  double pad_[4] = {0.0, 0.0, 0.0, 0.0};  ///< half-filled pair, zero pair
};

// The soft clip's tanh, shared by every level so they stay bit-identical.
// For a = min(|u|, kClamp) and y = 2a:
//   k = floor(y / ln2 + 0.5),  r = (y - k*ln2_hi) - k*ln2_lo,
//   p = expm1(r) = r + r*r*q(r)       (q: Taylor to r^13, Estrin order),
//   e = expm1(y) = 2^k*p + (2^k - 1),  tanh(a) = e / (e + 2),
// and the sign of u is copied back. No FMA anywhere: each level performs
// this exact operation sequence. ln2_hi has 21 trailing zero bits, so
// k*ln2_hi is exact; |r| <= ln2/2 bounds the truncated series term at
// r^14/14! < 5e-18. tanh(kClamp) rounds to 1.
namespace tanh_approx {
inline constexpr double kClamp = 20.0;
inline constexpr double kInvLn2 = 1.44269504088896338700e+00;
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
/// q's coefficients 1/(j+2)! for j = 0..11, highest order last.
inline constexpr double kExpm1Q[12] = {
    1.0 / 2.0,        1.0 / 6.0,         1.0 / 24.0,
    1.0 / 120.0,      1.0 / 720.0,       1.0 / 5040.0,
    1.0 / 40320.0,    1.0 / 362880.0,    1.0 / 3628800.0,
    1.0 / 39916800.0, 1.0 / 479001600.0, 1.0 / 6227020800.0};
}  // namespace tanh_approx
}  // namespace detail

/// The active dispatch table. Resolved once from VIBGUARD_SIMD + CPU
/// detection on first use; hot loops should hoist the reference.
inline const Ops& ops() {
  const Ops* p = detail::g_ops.load(std::memory_order_relaxed);
  return *(p != nullptr ? p : detail::resolve());
}

/// The level the active table implements.
Level active_level();

/// Best level this build + CPU supports (ignores the env override).
Level detect_level();

/// Levels available in this build on this CPU, best first. Always contains
/// kScalar.
std::vector<Level> available_levels();

/// Forces the dispatch table to `level`. Returns false (and leaves the
/// table unchanged) if the level is not available. Not synchronized with
/// concurrently running kernels — call from a quiescent point (tests do).
bool set_level(Level level);

/// Parses a VIBGUARD_SIMD-style string ("scalar", "avx2", "neon", "auto",
/// case-insensitive). Returns true and writes `out` on success; "auto" maps
/// to detect_level().
bool parse_level(const char* text, Level& out);

// Convenience wrappers for single call sites (hot loops hoist ops()).
inline void multiply(const double* a, const double* b, double* out,
                     std::size_t n) {
  ops().multiply(a, b, out, n);
}
inline double dot(const double* a, const double* b, std::size_t n) {
  return ops().dot(a, b, n);
}
inline double dot_reverse(const double* taps, const double* x,
                          std::size_t n) {
  return ops().dot_reverse(taps, x, n);
}
inline void linear_interp(const double* in, std::size_t in_size, double ratio,
                          double* out, std::size_t n) {
  ops().linear_interp(in, in_size, ratio, out, n);
}
inline PearsonMoments pearson_moments(const double* a, const double* b,
                                      std::size_t n) {
  return ops().pearson_moments(a, b, n);
}

/// The always-available scalar implementations, exported so tests can
/// compare any level's kernels against them directly.
namespace scalar {
extern const Ops kOps;
void multiply(const double* a, const double* b, double* out, std::size_t n);
void butterfly_stage(Complex* lo, Complex* hi, const Complex* tw,
                     std::size_t half, bool inverse);
void fft_gather_stage2_4(Complex* out, const double* src, std::size_t len,
                         const std::uint32_t* rev4, std::size_t n,
                         bool inverse);
void fft_stages(Complex* d, std::size_t n, const Complex* tw, bool inverse);
void windowed_power4(const double* in, std::size_t hop, const double* window,
                     const FrameTables& tables, double norm2, double* lanes,
                     double* out);
void rfft_split_power(const Complex* z, const Complex* rtw, std::size_t h,
                      double norm2, double* out);
void rfft_split(const Complex* z, const Complex* rtw, std::size_t h,
                Complex* out);
void irfft_merge(const Complex* x, const Complex* rtw, std::size_t h,
                 Complex* out);
double dot(const double* a, const double* b, std::size_t n);
double dot_reverse(const double* taps, const double* x, std::size_t n);
void linear_interp(const double* in, std::size_t in_size, double ratio,
                   double* out, std::size_t n);
PearsonMoments pearson_moments(const double* a, const double* b,
                               std::size_t n);
double max_value(const double* x, std::size_t n);
void divide(double* x, std::size_t n, double d);
std::size_t census_plain(const double* x, std::size_t n, double prev,
                         double zero_eps, CensusSums& acc);
std::size_t count_clipped(const double* x, std::size_t n, double level);
void soft_clip(double* x, std::size_t n, double drive, double peak,
               double scale);
}  // namespace scalar

#if VIBGUARD_SIMD_AVX2
namespace avx2 {
extern const Ops kOps;
}
#endif
#if VIBGUARD_SIMD_NEON
namespace neon {
extern const Ops kOps;
}
#endif

}  // namespace vibguard::dsp::simd
