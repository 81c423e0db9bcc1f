// NEON kernel implementations for aarch64, where NEON is baseline ISA (no
// runtime detection needed). Only the kernels where 2-lane float64 clearly
// pays are vectorized — the reductions and the elementwise multiply; the
// structured complex kernels dispatch to scalar, which the compiler already
// vectorizes reasonably on aarch64.
//
// Like the AVX2 unit, this file is built with -ffp-contract=off so its
// scalar tails round identically to the scalar reference; the vector
// reductions (dot, dot_reverse, pearson_moments) reassociate and agree with
// scalar only to tolerance.
#include "dsp/simd.hpp"

#if VIBGUARD_SIMD_NEON

#include <arm_neon.h>

#include <cstddef>

namespace vibguard::dsp::simd::neon {
namespace {

void multiply(const double* a, const double* b, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

double dot(const double* a, const double* b, std::size_t n) {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 = vfmaq_f64(acc0, vld1q_f64(a + i), vld1q_f64(b + i));
    acc1 = vfmaq_f64(acc1, vld1q_f64(a + i + 2), vld1q_f64(b + i + 2));
  }
  for (; i + 2 <= n; i += 2) {
    acc0 = vfmaq_f64(acc0, vld1q_f64(a + i), vld1q_f64(b + i));
  }
  double s = vaddvq_f64(vaddq_f64(acc0, acc1));
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

double dot_reverse(const double* taps, const double* x, std::size_t n) {
  float64x2_t acc = vdupq_n_f64(0.0);
  std::size_t t = 0;
  for (; t + 2 <= n; t += 2) {
    const float64x2_t vt = vld1q_f64(taps + t);
    // x[-t-1], x[-t] loaded ascending then swapped to tap order.
    const float64x2_t vx = vld1q_f64(x - t - 1);
    acc = vfmaq_f64(acc, vt, vextq_f64(vx, vx, 1));
  }
  double s = vaddvq_f64(acc);
  for (; t < n; ++t) s += taps[t] * x[-static_cast<std::ptrdiff_t>(t)];
  return s;
}

PearsonMoments pearson_moments(const double* a, const double* b,
                               std::size_t n) {
  float64x2_t sa = vdupq_n_f64(0.0);
  float64x2_t sb = vdupq_n_f64(0.0);
  float64x2_t saa = vdupq_n_f64(0.0);
  float64x2_t sbb = vdupq_n_f64(0.0);
  float64x2_t sab = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t va = vld1q_f64(a + i);
    const float64x2_t vb = vld1q_f64(b + i);
    sa = vaddq_f64(sa, va);
    sb = vaddq_f64(sb, vb);
    saa = vfmaq_f64(saa, va, va);
    sbb = vfmaq_f64(sbb, vb, vb);
    sab = vfmaq_f64(sab, va, vb);
  }
  PearsonMoments m;
  m.sa = vaddvq_f64(sa);
  m.sb = vaddvq_f64(sb);
  m.saa = vaddvq_f64(saa);
  m.sbb = vaddvq_f64(sbb);
  m.sab = vaddvq_f64(sab);
  for (; i < n; ++i) {
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

}  // namespace

const Ops kOps = {
    .level = Level::kNeon,
    .multiply = &multiply,
    .butterfly_stage = &scalar::butterfly_stage,
    .fft_gather_stage2_4 = &scalar::fft_gather_stage2_4,
    .fft_stages = &scalar::fft_stages,
    .windowed_power4 = &scalar::windowed_power4,
    .rfft_split_power = &scalar::rfft_split_power,
    .rfft_split = &scalar::rfft_split,
    .irfft_merge = &scalar::irfft_merge,
    .dot = &dot,
    .dot_reverse = &dot_reverse,
    .linear_interp = &scalar::linear_interp,
    .pearson_moments = &pearson_moments,
    .max_value = &scalar::max_value,
    .divide = &scalar::divide,
    .census_plain = &scalar::census_plain,
    .count_clipped = &scalar::count_clipped,
    .soft_clip = &scalar::soft_clip,
};

}  // namespace vibguard::dsp::simd::neon

#endif  // VIBGUARD_SIMD_NEON
