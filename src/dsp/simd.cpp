#include "dsp/simd.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace vibguard::dsp::simd {

// ---------------------------------------------------------------------------
// Scalar kernels. These are the pre-SIMD inner loops moved verbatim (the
// soft clip excepted, see simd.hpp): the expressions and accumulation order
// must not change, because VIBGUARD_SIMD=scalar is the repo's bit-identical
// reference path.
// ---------------------------------------------------------------------------
namespace scalar {

void multiply(const double* a, const double* b, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void butterfly_stage(Complex* lo, Complex* hi, const Complex* tw,
                     std::size_t half, bool inverse) {
  // Spelled out on raw doubles so the compiler can vectorize without the
  // NaN-handling branches of complex operator*.
  for (std::size_t j = 0; j < half; ++j) {
    const double wr = tw[j].real();
    const double wi = inverse ? -tw[j].imag() : tw[j].imag();
    const double xr = hi[j].real();
    const double xi = hi[j].imag();
    const double vr = xr * wr - xi * wi;
    const double vi = xr * wi + xi * wr;
    const double ur = lo[j].real();
    const double ui = lo[j].imag();
    lo[j] = Complex(ur + vr, ui + vi);
    hi[j] = Complex(ur - vr, ui - vi);
  }
}

void fft_gather_stage2_4(Complex* out, const double* src, std::size_t len,
                         const std::uint32_t* rev4, std::size_t n,
                         bool inverse) {
  const detail::PaddedPairs pairs(src, len);
  const auto load = [&pairs](std::size_t p) {
    const double* d = pairs.at(p);
    return Complex(d[0], d[1]);
  };
  if (n < 4) {
    // The bit-reversal of one or two points is the identity.
    const Complex u = load(0);
    if (n == 1) {
      out[0] = u;
      return;
    }
    const Complex v = load(1);
    out[0] = u + v;
    out[1] = u - v;
    return;
  }
  const std::size_t quarter = n / 4;
  for (std::size_t q = 0; q < quarter; ++q) {
    const std::size_t r = rev4[q];
    // Stage len = 2: butterflies with w = 1.
    const Complex c0 = load(r);
    const Complex c1 = load(r + 2 * quarter);
    const Complex t0 = c0 + c1;
    const Complex t1 = c0 - c1;
    const Complex c2 = load(r + quarter);
    const Complex c3 = load(r + 3 * quarter);
    const Complex v0 = c2 + c3;
    const Complex x = c2 - c3;
    // Stage len = 4: w is 1 or -i (forward) / +i (inverse).
    Complex* o = out + 4 * q;
    o[0] = t0 + v0;
    o[2] = t0 - v0;
    const Complex v1 = inverse ? Complex(-x.imag(), x.real())
                               : Complex(x.imag(), -x.real());
    o[1] = t1 + v1;
    o[3] = t1 - v1;
  }
}

void fft_stages(Complex* d, std::size_t n, const Complex* tw, bool inverse) {
  for (std::size_t len = 8; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n; i += len) {
      butterfly_stage(d + i, d + i + half, tw, half, inverse);
    }
    tw += half;
  }
}

void windowed_power4(const double* in, std::size_t hop, const double* window,
                     const FrameTables& tables, double norm2, double* lanes,
                     double* out) {
  // FftPlan::windowed_power's sequence, one frame after another: the
  // windowed frame in the first n doubles of `lanes`, its packed spectrum
  // in the next n.
  const std::size_t n = tables.n;
  const std::size_t h = n / 2;
  double* frame = lanes;
  auto* z = reinterpret_cast<Complex*>(lanes + n);
  for (std::size_t l = 0; l < 4; ++l) {
    multiply(in + l * hop, window, frame, n);
    fft_gather_stage2_4(z, frame, n, tables.rev4, h, false);
    fft_stages(z, h, tables.tw, false);
    double* o = out + l * (h + 1);
    const double x0 = z[0].real() + z[0].imag();
    const double xh = z[0].real() - z[0].imag();
    o[0] = x0 * x0 * norm2;
    o[h] = xh * xh * norm2;
    rfft_split_power(z, tables.rtw, h, norm2, o);
  }
}

void rfft_split_power(const Complex* z, const Complex* rtw, std::size_t h,
                      double norm2, double* out) {
  for (std::size_t k = 1; k < h; ++k) {
    const Complex zk = z[k];
    const Complex zc = std::conj(z[h - k]);
    const Complex even = 0.5 * (zk + zc);
    const Complex odd = Complex(0.0, -0.5) * (zk - zc);
    const Complex x = even + rtw[k] * odd;
    out[k] = (x.real() * x.real() + x.imag() * x.imag()) * norm2;
  }
}

void rfft_split(const Complex* z, const Complex* rtw, std::size_t h,
                Complex* out) {
  for (std::size_t k = 1; k < h; ++k) {
    const Complex zk = z[k];
    const Complex zc = std::conj(z[h - k]);
    const Complex even = 0.5 * (zk + zc);
    const Complex odd = Complex(0.0, -0.5) * (zk - zc);
    out[k] = even + rtw[k] * odd;
  }
}

void irfft_merge(const Complex* x, const Complex* rtw, std::size_t h,
                 Complex* out) {
  for (std::size_t k = 1; k < h; ++k) {
    const double xr = x[k].real(), xi = x[k].imag();
    const double cr = x[h - k].real(), ci = -x[h - k].imag();
    const double er = 0.5 * (xr + cr), ei = 0.5 * (xi + ci);
    const double dr = 0.5 * (xr - cr), di = 0.5 * (xi - ci);
    const double wr = rtw[k].real(), wi = rtw[k].imag();
    const double odd_r = dr * wr + di * wi;
    const double odd_i = di * wr - dr * wi;
    out[k] = Complex(er - odd_i, ei + odd_r);
  }
}

double dot(const double* a, const double* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

double dot_reverse(const double* taps, const double* x, std::size_t n) {
  double acc = 0.0;
  for (std::size_t t = 0; t < n; ++t) acc += taps[t] * x[-static_cast<std::ptrdiff_t>(t)];
  return acc;
}

void linear_interp(const double* in, std::size_t in_size, double ratio,
                   double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double pos = static_cast<double>(i) * ratio;
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = lo + 1 < in_size ? lo + 1 : lo;
    const double frac = pos - static_cast<double>(lo);
    out[i] = in[lo] * (1.0 - frac) + in[hi] * frac;
  }
}

PearsonMoments pearson_moments(const double* a, const double* b,
                               std::size_t n) {
  PearsonMoments m;
  for (std::size_t i = 0; i < n; ++i) {
    const double xa = a[i];
    const double xb = b[i];
    m.sa += xa;
    m.sb += xb;
    m.saa += xa * xa;
    m.sbb += xb * xb;
    m.sab += xa * xb;
  }
  return m;
}

double max_value(const double* x, std::size_t n) {
  double best = 0.0;
  for (std::size_t i = 0; i < n; ++i) best = std::max(best, x[i]);
  return best;
}

void divide(double* x, std::size_t n, double d) {
  for (std::size_t i = 0; i < n; ++i) x[i] /= d;
}

std::size_t census_plain(const double* x, std::size_t n, double prev,
                         double zero_eps, CensusSums& acc) {
  constexpr double kMax = std::numeric_limits<double>::max();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    bool event = false;
    for (std::size_t j = i; j < i + 4; ++j) {
      const double a = std::abs(x[j]);
      const double before = j == 0 ? prev : x[j - 1];
      event |= !(a > zero_eps && a <= kMax) || x[j] == before;
    }
    if (event) break;
    for (std::size_t j = i; j < i + 4; ++j) {
      acc.sum += x[j];
      acc.sum_sq += x[j] * x[j];
      acc.peak = std::max(acc.peak, std::abs(x[j]));
    }
  }
  return i;
}

std::size_t count_clipped(const double* x, std::size_t n, double level) {
  std::size_t clipped = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isfinite(x[i]) && std::abs(x[i]) >= level) ++clipped;
  }
  return clipped;
}

namespace {

// detail::tanh_approx, one lane. The AVX2 kernel mirrors every operation
// below in the same order; the sign and the power of two are bit
// manipulations there, so they are spelled as bit manipulations here too.
double tanh_approx(double u) {
  namespace c = detail::tanh_approx;
  constexpr std::uint64_t kSign = 0x8000000000000000ULL;
  constexpr double kMagic = 4503599627370496.0;  // 2^52
  const std::uint64_t ubits = std::bit_cast<std::uint64_t>(u);
  const double abs_u = std::bit_cast<double>(ubits & ~kSign);
  const double a = c::kClamp < abs_u ? c::kClamp : abs_u;  // NaN stays NaN
  const double y = a + a;
  const double k = std::floor(y * c::kInvLn2 + 0.5);
  const double r = (y - k * c::kLn2Hi) - k * c::kLn2Lo;
  const double* cq = c::kExpm1Q;
  const double r2 = r * r;
  const double r4 = r2 * r2;
  const double q01 = cq[0] + cq[1] * r, q23 = cq[2] + cq[3] * r;
  const double q45 = cq[4] + cq[5] * r, q67 = cq[6] + cq[7] * r;
  const double q89 = cq[8] + cq[9] * r, qab = cq[10] + cq[11] * r;
  const double q03 = q01 + q23 * r2, q47 = q45 + q67 * r2;
  const double q8b = q89 + qab * r2;
  const double q = (q03 + q47 * r4) + q8b * (r4 * r4);
  const double p = r + r2 * q;
  const double two = std::bit_cast<double>(
      (std::bit_cast<std::uint64_t>(k + kMagic) -
       std::bit_cast<std::uint64_t>(kMagic) + 1023) << 52);
  const double e = two * p + (two - 1.0);
  const double t = e / (e + 2.0);
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(t) |
                               (ubits & kSign));
}

}  // namespace

void soft_clip(double* x, std::size_t n, double drive, double peak,
               double scale) {
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = tanh_approx(drive * x[i] / peak) * scale;
  }
}

const Ops kOps = {
    .level = Level::kScalar,
    .multiply = &multiply,
    .butterfly_stage = &butterfly_stage,
    .fft_gather_stage2_4 = &fft_gather_stage2_4,
    .fft_stages = &fft_stages,
    .windowed_power4 = &windowed_power4,
    .rfft_split_power = &rfft_split_power,
    .rfft_split = &rfft_split,
    .irfft_merge = &irfft_merge,
    .dot = &dot,
    .dot_reverse = &dot_reverse,
    .linear_interp = &linear_interp,
    .pearson_moments = &pearson_moments,
    .max_value = &max_value,
    .divide = &divide,
    .census_plain = &census_plain,
    .count_clipped = &count_clipped,
    .soft_clip = &soft_clip,
};

}  // namespace scalar

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------
namespace {

const Ops* table_for(Level level) {
  switch (level) {
    case Level::kScalar:
      return &scalar::kOps;
#if VIBGUARD_SIMD_AVX2
    case Level::kAvx2:
      return &avx2::kOps;
#endif
#if VIBGUARD_SIMD_NEON
    case Level::kNeon:
      return &neon::kOps;
#endif
    default:
      return nullptr;
  }
}

bool level_supported(Level level) {
  if (level == Level::kScalar) return true;
#if VIBGUARD_SIMD_AVX2
  if (level == Level::kAvx2) {
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }
#endif
#if VIBGUARD_SIMD_NEON
  if (level == Level::kNeon) return true;  // NEON is baseline on aarch64
#endif
  return false;
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kNeon:
      return "neon";
    case Level::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Level detect_level() {
  if (level_supported(Level::kAvx2)) return Level::kAvx2;
  if (level_supported(Level::kNeon)) return Level::kNeon;
  return Level::kScalar;
}

std::vector<Level> available_levels() {
  std::vector<Level> out;
  for (Level l : {Level::kAvx2, Level::kNeon}) {
    if (level_supported(l)) out.push_back(l);
  }
  out.push_back(Level::kScalar);
  return out;
}

bool parse_level(const char* text, Level& out) {
  if (text == nullptr) return false;
  std::string s(text);
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (s == "auto") {
    out = detect_level();
    return true;
  }
  if (s == "scalar") {
    out = Level::kScalar;
    return true;
  }
  if (s == "avx2") {
    out = Level::kAvx2;
    return true;
  }
  if (s == "neon") {
    out = Level::kNeon;
    return true;
  }
  return false;
}

namespace detail {

std::atomic<const Ops*> g_ops{nullptr};

const Ops* resolve() {
  // First use: honor VIBGUARD_SIMD, then fall back to detection. The CAS
  // makes concurrent first calls converge on one table; set_level wins if
  // it already stored one.
  Level level = detect_level();
  if (const char* env = std::getenv("VIBGUARD_SIMD")) {
    Level requested;
    if (!parse_level(env, requested)) {
      std::fprintf(stderr,
                   "vibguard: ignoring invalid VIBGUARD_SIMD=%s "
                   "(want scalar|avx2|neon|auto)\n",
                   env);
    } else if (!level_supported(requested)) {
      std::fprintf(stderr,
                   "vibguard: VIBGUARD_SIMD=%s not supported on this "
                   "build/CPU; using %s\n",
                   env, level_name(level));
    } else {
      level = requested;
    }
  }
  const Ops* expected = nullptr;
  g_ops.compare_exchange_strong(expected, table_for(level),
                                std::memory_order_acq_rel);
  return g_ops.load(std::memory_order_relaxed);
}

}  // namespace detail

Level active_level() { return ops().level; }

bool set_level(Level level) {
  if (!level_supported(level)) return false;
  detail::g_ops.store(table_for(level), std::memory_order_release);
  return true;
}

}  // namespace vibguard::dsp::simd
