// AVX2+FMA kernel implementations. Compiled as the only translation unit
// with -mavx2 -mfma (and -ffp-contract=off so scalar tail loops round
// exactly like the scalar reference); entered only after cpuid confirms
// both features.
//
// Lane discipline: the elementwise kernels (multiply, divide,
// butterfly_stage, fft_gather_stage2_4, fft_stages, windowed_power4,
// rfft_split_power, rfft_split, irfft_merge, linear_interp, soft_clip)
// evaluate per-output expressions with the same operations in the same
// order as the scalar kernels — multiplication/addition operand swaps only
// where IEEE-754 results are bitwise unchanged — so they are bit-identical
// to scalar. windowed_power4 holds one STFT
// frame per lane and repeats, lane by lane, the operations this unit's
// per-frame kernels perform. max_value, count_clipped and census_plain are
// reductions whose result does not depend on the order: a max, a count,
// and sums kept strictly left to right. The other reductions (dot,
// dot_reverse, pearson_moments) use 4-lane FMA accumulators and differ from
// scalar by reassociation only.
#include "dsp/simd.hpp"

#if VIBGUARD_SIMD_AVX2

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace vibguard::dsp::simd::avx2 {
namespace {

// Two complex<double> per __m256d: [re0 im0 re1 im1].
// Textbook complex product per lane-pair:
//   re = xr*wr - xi*wi, im = xi*wr + xr*wi
inline __m256d cmul(__m256d x, __m256d w) {
  const __m256d wr = _mm256_movedup_pd(w);          // [wr0 wr0 wr1 wr1]
  const __m256d wi = _mm256_permute_pd(w, 0xF);     // [wi0 wi0 wi1 wi1]
  const __m256d xs = _mm256_permute_pd(x, 0x5);     // [xi0 xr0 xi1 xr1]
  return _mm256_addsub_pd(_mm256_mul_pd(x, wr), _mm256_mul_pd(xs, wi));
}

// Sign mask that conjugates both packed complexes (negates lanes 1 and 3).
inline __m256d conj_mask() { return _mm256_set_pd(-0.0, 0.0, -0.0, 0.0); }

inline double hsum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

void multiply(const double* a, const double* b, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_loadu_pd(a + i),
                                            _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

void butterfly_stage(Complex* lo, Complex* hi, const Complex* tw,
                     std::size_t half, bool inverse) {
  double* plo = reinterpret_cast<double*>(lo);
  double* phi = reinterpret_cast<double*>(hi);
  const double* ptw = reinterpret_cast<const double*>(tw);
  const __m256d cm = conj_mask();
  std::size_t j = 0;
  for (; j + 4 <= half; j += 4) {
    __m256d w0 = _mm256_loadu_pd(ptw + 2 * j);
    __m256d w1 = _mm256_loadu_pd(ptw + 2 * j + 4);
    if (inverse) {
      w0 = _mm256_xor_pd(w0, cm);
      w1 = _mm256_xor_pd(w1, cm);
    }
    const __m256d v0 = cmul(_mm256_loadu_pd(phi + 2 * j), w0);
    const __m256d v1 = cmul(_mm256_loadu_pd(phi + 2 * j + 4), w1);
    const __m256d u0 = _mm256_loadu_pd(plo + 2 * j);
    const __m256d u1 = _mm256_loadu_pd(plo + 2 * j + 4);
    _mm256_storeu_pd(plo + 2 * j, _mm256_add_pd(u0, v0));
    _mm256_storeu_pd(plo + 2 * j + 4, _mm256_add_pd(u1, v1));
    _mm256_storeu_pd(phi + 2 * j, _mm256_sub_pd(u0, v0));
    _mm256_storeu_pd(phi + 2 * j + 4, _mm256_sub_pd(u1, v1));
  }
  for (; j + 2 <= half; j += 2) {
    __m256d w = _mm256_loadu_pd(ptw + 2 * j);
    if (inverse) w = _mm256_xor_pd(w, cm);
    const __m256d v = cmul(_mm256_loadu_pd(phi + 2 * j), w);
    const __m256d u = _mm256_loadu_pd(plo + 2 * j);
    _mm256_storeu_pd(plo + 2 * j, _mm256_add_pd(u, v));
    _mm256_storeu_pd(phi + 2 * j, _mm256_sub_pd(u, v));
  }
  if (j < half) {
    scalar::butterfly_stage(lo + j, hi + j, tw + j, half - j, inverse);
  }
}

void fft_stages(Complex* d, std::size_t n, const Complex* tw, bool inverse) {
  // Stages run fused in pairs (radix-2^2 blocking): stage `len` and stage
  // `2*len` butterflies are computed in registers before storing, halving
  // the memory round-trips. Per element this is exactly the scalar
  // arithmetic in the scalar stage order — only the intermediate store/load
  // between the two stages is elided — so the result stays bit-identical.
  const __m256d cm = conj_mask();
  std::size_t len = 8;
  while (len <= n) {
    const std::size_t half = len / 2;
    if (2 * len <= n) {
      const std::size_t len2 = 2 * len;
      const double* ptw1 = reinterpret_cast<const double*>(tw);
      const double* ptw2 = reinterpret_cast<const double*>(tw + half);
      for (std::size_t i = 0; i < n; i += len2) {
        double* p = reinterpret_cast<double*>(d + i);
        // half >= 4 and a power of two here, so the j loop has no tail.
        for (std::size_t j = 0; j + 2 <= half; j += 2) {
          __m256d w1 = _mm256_loadu_pd(ptw1 + 2 * j);
          __m256d w2a = _mm256_loadu_pd(ptw2 + 2 * j);
          __m256d w2b = _mm256_loadu_pd(ptw2 + 2 * (j + half));
          if (inverse) {
            w1 = _mm256_xor_pd(w1, cm);
            w2a = _mm256_xor_pd(w2a, cm);
            w2b = _mm256_xor_pd(w2b, cm);
          }
          const __m256d alo = _mm256_loadu_pd(p + 2 * j);
          const __m256d ahi = _mm256_loadu_pd(p + 2 * (j + half));
          const __m256d blo = _mm256_loadu_pd(p + 2 * (j + len));
          const __m256d bhi = _mm256_loadu_pd(p + 2 * (j + len + half));
          // Stage `len` on both sub-blocks.
          const __m256d va = cmul(ahi, w1);
          const __m256d vb = cmul(bhi, w1);
          const __m256d a0 = _mm256_add_pd(alo, va);
          const __m256d a1 = _mm256_sub_pd(alo, va);
          const __m256d b0 = _mm256_add_pd(blo, vb);
          const __m256d b1 = _mm256_sub_pd(blo, vb);
          // Stage `2*len`: lo halves pair up, hi halves pair up.
          const __m256d v0 = cmul(b0, w2a);
          const __m256d v1 = cmul(b1, w2b);
          _mm256_storeu_pd(p + 2 * j, _mm256_add_pd(a0, v0));
          _mm256_storeu_pd(p + 2 * (j + len), _mm256_sub_pd(a0, v0));
          _mm256_storeu_pd(p + 2 * (j + half), _mm256_add_pd(a1, v1));
          _mm256_storeu_pd(p + 2 * (j + len + half), _mm256_sub_pd(a1, v1));
        }
      }
      tw += half + len;
      len <<= 2;
    } else {
      for (std::size_t i = 0; i < n; i += len) {
        butterfly_stage(d + i, d + i + half, tw, half, inverse);
      }
      tw += half;
      len <<= 1;
    }
  }
}

void fft_gather_stage2_4(Complex* out, const double* src, std::size_t len,
                         const std::uint32_t* rev4, std::size_t n,
                         bool inverse) {
  if (n < 4) {
    scalar::fft_gather_stage2_4(out, src, len, rev4, n, inverse);
    return;
  }
  const detail::PaddedPairs pairs(src, len);
  const auto load = [&pairs](std::size_t p) {
    return _mm_loadu_pd(pairs.at(p));
  };
  double* po = reinterpret_cast<double*>(out);
  // len-4 stage twiddle is -i (forward) / +i (inverse): a re/im swap with
  // one sign flip. Negating via XOR matches the scalar code's negation
  // bit-for-bit.
  const __m256d v1_sign = inverse ? _mm256_set_pd(0.0, -0.0, 0.0, 0.0)
                                  : _mm256_set_pd(-0.0, 0.0, 0.0, 0.0);
  const std::size_t quarter = n / 4;
  for (std::size_t q = 0; q < quarter; ++q) {
    const std::size_t r = rev4[q];
    // [c0 c1] and [c2 c3]: the pairs that belong at 4q..4q+3 in
    // bit-reversed order.
    const __m256d a = _mm256_set_m128d(load(r + 2 * quarter), load(r));
    const __m256d b =
        _mm256_set_m128d(load(r + 3 * quarter), load(r + quarter));
    // len-2 butterflies within each pair: [x y] -> [x+y, x-y].
    const __m256d aswap = _mm256_permute2f128_pd(a, a, 0x01);
    const __m256d bswap = _mm256_permute2f128_pd(b, b, 0x01);
    const __m256d t =
        _mm256_permute2f128_pd(_mm256_add_pd(a, aswap),
                               _mm256_sub_pd(a, aswap), 0x20);
    const __m256d u =
        _mm256_permute2f128_pd(_mm256_add_pd(b, bswap),
                               _mm256_sub_pd(b, bswap), 0x20);
    // len-4: v = [u0, (∓i)*u1]; the swap moves im/re of u1 into place.
    const __m256d uswap = _mm256_permute_pd(u, 0x5);
    const __m256d v =
        _mm256_xor_pd(_mm256_blend_pd(u, uswap, 0b1100), v1_sign);
    _mm256_storeu_pd(po + 8 * q, _mm256_add_pd(t, v));
    _mm256_storeu_pd(po + 8 * q + 4, _mm256_sub_pd(t, v));
  }
}

// One split-to-power bin in std::complex arithmetic: rfft_split_power's
// last bin, which windowed_power4 computes per lane the same way.
double split_power_bin(Complex zk, Complex zhk, Complex tw, double norm2) {
  const Complex zc = std::conj(zhk);
  const Complex even = 0.5 * (zk + zc);
  const Complex odd = Complex(0.0, -0.5) * (zk - zc);
  const Complex x = even + tw * odd;
  return (x.real() * x.real() + x.imag() * x.imag()) * norm2;
}

// windowed_power4's lanes: complex element j of the four frames' packed
// spectra is two vectors, the real parts at p[8j] and the imaginary parts
// at p[8j + 4].
struct LaneComplex {
  __m256d re, im;
};

inline LaneComplex lane_load(const double* p, std::size_t j) {
  return {_mm256_load_pd(p + 8 * j), _mm256_load_pd(p + 8 * j + 4)};
}

inline void lane_store(double* p, std::size_t j, LaneComplex v) {
  _mm256_store_pd(p + 8 * j, v.re);
  _mm256_store_pd(p + 8 * j + 4, v.im);
}

inline LaneComplex lane_add(LaneComplex a, LaneComplex b) {
  return {_mm256_add_pd(a.re, b.re), _mm256_add_pd(a.im, b.im)};
}

inline LaneComplex lane_sub(LaneComplex a, LaneComplex b) {
  return {_mm256_sub_pd(a.re, b.re), _mm256_sub_pd(a.im, b.im)};
}

// cmul(x, w) per lane, w broadcast from the twiddle table:
//   re = xr*wr - xi*wi, im = xi*wr + xr*wi.
inline LaneComplex lane_cmul(LaneComplex x, const Complex& w) {
  const double* pw = reinterpret_cast<const double*>(&w);
  const __m256d wr = _mm256_broadcast_sd(pw);
  const __m256d wi = _mm256_broadcast_sd(pw + 1);
  return {_mm256_sub_pd(_mm256_mul_pd(x.re, wr), _mm256_mul_pd(x.im, wi)),
          _mm256_add_pd(_mm256_mul_pd(x.im, wr), _mm256_mul_pd(x.re, wi))};
}

void windowed_power4(const double* in, std::size_t hop, const double* window,
                     const FrameTables& tables, double norm2, double* lanes,
                     double* out) {
  const std::size_t n = tables.n;
  const std::size_t h = n / 2;
  const std::size_t quarter = h / 4;
  const __m256d neg = _mm256_set1_pd(-0.0);

  // Pair p (samples 2p, 2p + 1) of the four frames, windowed as multiply
  // does (sample * window) and transposed into lanes.
  const auto load_pair = [&](std::size_t p) {
    const double* s = in + 2 * p;
    const __m256d w =
        _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(window + 2 * p));
    const __m256d a = _mm256_mul_pd(
        _mm256_set_m128d(_mm_loadu_pd(s + 2 * hop), _mm_loadu_pd(s)), w);
    const __m256d b = _mm256_mul_pd(
        _mm256_set_m128d(_mm_loadu_pd(s + 3 * hop), _mm_loadu_pd(s + hop)),
        w);
    return LaneComplex{_mm256_unpacklo_pd(a, b), _mm256_unpackhi_pd(a, b)};
  };

  // fft_gather_stage2_4 (forward): bit-reversed gather, len-2 and len-4
  // butterflies; the -i twiddle is (x.im, -x.re).
  for (std::size_t q = 0; q < quarter; ++q) {
    const std::size_t r = tables.rev4[q];
    const LaneComplex c0 = load_pair(r);
    const LaneComplex c1 = load_pair(r + 2 * quarter);
    const LaneComplex c2 = load_pair(r + quarter);
    const LaneComplex c3 = load_pair(r + 3 * quarter);
    const LaneComplex t0 = lane_add(c0, c1);
    const LaneComplex t1 = lane_sub(c0, c1);
    const LaneComplex v0 = lane_add(c2, c3);
    const LaneComplex x = lane_sub(c2, c3);
    const LaneComplex v1{x.im, _mm256_xor_pd(x.re, neg)};
    lane_store(lanes, 4 * q, lane_add(t0, v0));
    lane_store(lanes, 4 * q + 1, lane_add(t1, v1));
    lane_store(lanes, 4 * q + 2, lane_sub(t0, v0));
    lane_store(lanes, 4 * q + 3, lane_sub(t1, v1));
  }

  // fft_stages: the same radix-2^2 pairing, broadcast twiddles.
  const Complex* tw = tables.tw;
  std::size_t len = 8;
  while (len <= h) {
    const std::size_t half = len / 2;
    if (2 * len <= h) {
      const Complex* tw2 = tw + half;
      for (std::size_t i = 0; i < h; i += 2 * len) {
        for (std::size_t j = i; j < i + half; ++j) {
          const LaneComplex alo = lane_load(lanes, j);
          const LaneComplex ahi = lane_load(lanes, j + half);
          const LaneComplex blo = lane_load(lanes, j + len);
          const LaneComplex bhi = lane_load(lanes, j + len + half);
          const LaneComplex va = lane_cmul(ahi, tw[j - i]);
          const LaneComplex vb = lane_cmul(bhi, tw[j - i]);
          const LaneComplex a0 = lane_add(alo, va);
          const LaneComplex a1 = lane_sub(alo, va);
          const LaneComplex b0 = lane_add(blo, vb);
          const LaneComplex b1 = lane_sub(blo, vb);
          const LaneComplex v0 = lane_cmul(b0, tw2[j - i]);
          const LaneComplex v1 = lane_cmul(b1, tw2[j - i + half]);
          lane_store(lanes, j, lane_add(a0, v0));
          lane_store(lanes, j + len, lane_sub(a0, v0));
          lane_store(lanes, j + half, lane_add(a1, v1));
          lane_store(lanes, j + len + half, lane_sub(a1, v1));
        }
      }
      tw += half + len;
      len <<= 2;
    } else {
      for (std::size_t i = 0; i < h; i += len) {
        for (std::size_t j = i; j < i + half; ++j) {
          const LaneComplex lo = lane_load(lanes, j);
          const LaneComplex v = lane_cmul(lane_load(lanes, j + half), tw[j - i]);
          lane_store(lanes, j, lane_add(lo, v));
          lane_store(lanes, j + half, lane_sub(lo, v));
        }
      }
      tw += half;
      len <<= 1;
    }
  }

  // Split to power, as rfft_split_power and the plan's bins 0 and h do it.
  const __m256d n2 = _mm256_set1_pd(norm2);
  const __m256d halfv = _mm256_set1_pd(0.5);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d mhalf = _mm256_set1_pd(-0.5);
  const LaneComplex z0 = lane_load(lanes, 0);
  const auto bin = [&](std::size_t k) {
    const LaneComplex zk = lane_load(lanes, k);
    const LaneComplex zh = lane_load(lanes, h - k);
    const LaneComplex zc{zh.re, _mm256_xor_pd(zh.im, neg)};
    const LaneComplex sum = lane_add(zk, zc);
    const LaneComplex even{_mm256_mul_pd(halfv, sum.re),
                           _mm256_mul_pd(halfv, sum.im)};
    const LaneComplex d = lane_sub(zk, zc);
    // cmul(d, (0, -0.5)), products by zero included.
    const LaneComplex odd{
        _mm256_sub_pd(_mm256_mul_pd(d.re, zero), _mm256_mul_pd(d.im, mhalf)),
        _mm256_add_pd(_mm256_mul_pd(d.im, zero), _mm256_mul_pd(d.re, mhalf))};
    const LaneComplex x = lane_add(even, lane_cmul(odd, tables.rtw[k]));
    return _mm256_mul_pd(
        _mm256_add_pd(_mm256_mul_pd(x.re, x.re), _mm256_mul_pd(x.im, x.im)),
        n2);
  };
  const auto edge = [&](__m256d x) {  // bins 0 and h from z[0]
    return _mm256_mul_pd(_mm256_mul_pd(x, x), n2);
  };
  const auto last = [&] {  // bin h - 1, rfft_split_power's scalar tail
    alignas(32) double zr[4], zi[4], hr[4], hi[4], p[4];
    _mm256_store_pd(zr, _mm256_load_pd(lanes + 8 * (h - 1)));
    _mm256_store_pd(zi, _mm256_load_pd(lanes + 8 * (h - 1) + 4));
    _mm256_store_pd(hr, _mm256_load_pd(lanes + 8));
    _mm256_store_pd(hi, _mm256_load_pd(lanes + 12));
    for (std::size_t l = 0; l < 4; ++l) {
      p[l] = split_power_bin(Complex(zr[l], zi[l]), Complex(hr[l], hi[l]),
                             tables.rtw[h - 1], norm2);
    }
    return _mm256_load_pd(p);
  };
  // Bins 0..h-1 in blocks of four, transposed from lanes (frames) to rows.
  const std::size_t stride = h + 1;
  for (std::size_t k = 0; k < h; k += 4) {
    __m256d p[4];
    for (std::size_t m = 0; m < 4; ++m) {
      const std::size_t b = k + m;
      p[m] = b == 0 ? edge(_mm256_add_pd(z0.re, z0.im))
                    : (b == h - 1 ? last() : bin(b));
    }
    const __m256d t0 = _mm256_unpacklo_pd(p[0], p[1]);
    const __m256d t1 = _mm256_unpackhi_pd(p[0], p[1]);
    const __m256d t2 = _mm256_unpacklo_pd(p[2], p[3]);
    const __m256d t3 = _mm256_unpackhi_pd(p[2], p[3]);
    _mm256_storeu_pd(out + k, _mm256_permute2f128_pd(t0, t2, 0x20));
    _mm256_storeu_pd(out + stride + k, _mm256_permute2f128_pd(t1, t3, 0x20));
    _mm256_storeu_pd(out + 2 * stride + k,
                     _mm256_permute2f128_pd(t0, t2, 0x31));
    _mm256_storeu_pd(out + 3 * stride + k,
                     _mm256_permute2f128_pd(t1, t3, 0x31));
  }
  alignas(32) double ph[4];
  _mm256_store_pd(ph, edge(_mm256_sub_pd(z0.re, z0.im)));
  for (std::size_t l = 0; l < 4; ++l) out[l * stride + h] = ph[l];
}

void rfft_split_power(const Complex* z, const Complex* rtw, std::size_t h,
                      double norm2, double* out) {
  const double* pz = reinterpret_cast<const double*>(z);
  const double* ptw = reinterpret_cast<const double*>(rtw);
  const __m256d cm = conj_mask();
  const __m256d halfv = _mm256_set1_pd(0.5);
  // The odd-part twiddle (0, -0.5) packed for both lanes.
  const __m256d w1 = _mm256_set_pd(-0.5, 0.0, -0.5, 0.0);
  const __m256d n2 = _mm256_set1_pd(norm2);
  std::size_t k = 1;
  for (; k + 4 <= h; k += 4) {
    const __m256d zk0 = _mm256_loadu_pd(pz + 2 * k);
    const __m256d zk1 = _mm256_loadu_pd(pz + 2 * (k + 2));
    __m256d zc0 = _mm256_loadu_pd(pz + 2 * (h - k - 1));
    __m256d zc1 = _mm256_loadu_pd(pz + 2 * (h - k - 3));
    zc0 = _mm256_xor_pd(_mm256_permute2f128_pd(zc0, zc0, 0x01), cm);
    zc1 = _mm256_xor_pd(_mm256_permute2f128_pd(zc1, zc1, 0x01), cm);
    const __m256d even0 = _mm256_mul_pd(halfv, _mm256_add_pd(zk0, zc0));
    const __m256d even1 = _mm256_mul_pd(halfv, _mm256_add_pd(zk1, zc1));
    const __m256d odd0 = cmul(_mm256_sub_pd(zk0, zc0), w1);
    const __m256d odd1 = cmul(_mm256_sub_pd(zk1, zc1), w1);
    const __m256d x0 =
        _mm256_add_pd(even0, cmul(odd0, _mm256_loadu_pd(ptw + 2 * k)));
    const __m256d x1 =
        _mm256_add_pd(even1, cmul(odd1, _mm256_loadu_pd(ptw + 2 * (k + 2))));
    const __m256d sq0 = _mm256_mul_pd(x0, x0);
    const __m256d sq1 = _mm256_mul_pd(x1, x1);
    // hadd interleaves the four bins as [k, k+2, k+1, k+3]; permute back to
    // ascending order for one packed store.
    const __m256d bins = _mm256_permute4x64_pd(_mm256_hadd_pd(sq0, sq1),
                                               _MM_SHUFFLE(3, 1, 2, 0));
    _mm256_storeu_pd(out + k, _mm256_mul_pd(bins, n2));
  }
  for (; k + 2 <= h; k += 2) {
    const __m256d zk = _mm256_loadu_pd(pz + 2 * k);
    // z[h-k], z[h-k-1] loaded forward then lane-swapped into descending
    // order so lane pair p holds conj(z[h - (k+p)]).
    __m256d zc = _mm256_loadu_pd(pz + 2 * (h - k - 1));
    zc = _mm256_permute2f128_pd(zc, zc, 0x01);
    zc = _mm256_xor_pd(zc, cm);
    const __m256d even = _mm256_mul_pd(halfv, _mm256_add_pd(zk, zc));
    const __m256d odd = cmul(_mm256_sub_pd(zk, zc), w1);
    const __m256d x =
        _mm256_add_pd(even, cmul(odd, _mm256_loadu_pd(ptw + 2 * k)));
    const __m256d sq = _mm256_mul_pd(x, x);
    // hadd pairs re^2+im^2 within each 128-bit lane.
    const __m256d p = _mm256_mul_pd(_mm256_hadd_pd(sq, sq), n2);
    out[k] = _mm256_cvtsd_f64(p);
    out[k + 1] = _mm_cvtsd_f64(_mm256_extractf128_pd(p, 1));
  }
  for (; k < h; ++k) out[k] = split_power_bin(z[k], z[h - k], rtw[k], norm2);
}

void rfft_split(const Complex* z, const Complex* rtw, std::size_t h,
                Complex* out) {
  const double* pz = reinterpret_cast<const double*>(z);
  const double* ptw = reinterpret_cast<const double*>(rtw);
  double* po = reinterpret_cast<double*>(out);
  const __m256d cm = conj_mask();
  const __m256d halfv = _mm256_set1_pd(0.5);
  const __m256d w1 = _mm256_set_pd(-0.5, 0.0, -0.5, 0.0);
  std::size_t k = 1;
  for (; k + 2 <= h; k += 2) {
    // Lane pair p holds z[k+p] and conj(z[h - (k+p)]), as in
    // rfft_split_power.
    const __m256d zk = _mm256_loadu_pd(pz + 2 * k);
    __m256d zc = _mm256_loadu_pd(pz + 2 * (h - k - 1));
    zc = _mm256_xor_pd(_mm256_permute2f128_pd(zc, zc, 0x01), cm);
    const __m256d even = _mm256_mul_pd(halfv, _mm256_add_pd(zk, zc));
    const __m256d odd = cmul(_mm256_sub_pd(zk, zc), w1);
    _mm256_storeu_pd(po + 2 * k, _mm256_add_pd(
                                     even, cmul(odd, _mm256_loadu_pd(
                                                         ptw + 2 * k))));
  }
  if (k < h) {
    const Complex zk = z[k];
    const Complex zc = std::conj(z[h - k]);
    const Complex even = 0.5 * (zk + zc);
    const Complex odd = Complex(0.0, -0.5) * (zk - zc);
    out[k] = even + rtw[k] * odd;
  }
}

void irfft_merge(const Complex* x, const Complex* rtw, std::size_t h,
                 Complex* out) {
  const double* px = reinterpret_cast<const double*>(x);
  const double* ptw = reinterpret_cast<const double*>(rtw);
  double* po = reinterpret_cast<double*>(out);
  const __m256d cm = conj_mask();
  const __m256d halfv = _mm256_set1_pd(0.5);
  const __m256d neg = _mm256_set1_pd(-0.0);
  std::size_t k = 1;
  for (; k + 2 <= h; k += 2) {
    const __m256d xk = _mm256_loadu_pd(px + 2 * k);
    __m256d xc = _mm256_loadu_pd(px + 2 * (h - k - 1));
    xc = _mm256_xor_pd(_mm256_permute2f128_pd(xc, xc, 0x01), cm);
    const __m256d e = _mm256_mul_pd(halfv, _mm256_add_pd(xk, xc));
    const __m256d d = _mm256_mul_pd(halfv, _mm256_sub_pd(xk, xc));
    const __m256d w = _mm256_loadu_pd(ptw + 2 * k);
    const __m256d wr = _mm256_movedup_pd(w);       // [wr0 wr0 wr1 wr1]
    const __m256d wi = _mm256_permute_pd(w, 0xF);  // [wi0 wi0 wi1 wi1]
    const __m256d ds = _mm256_permute_pd(d, 0x5);  // [di0 dr0 di1 dr1]
    // odd = (dr*wr - (-(di*wi)), di*wr + (-(dr*wi))): subtracting a
    // negated product is bitwise the scalar sum, adding one the difference.
    const __m256d odd = _mm256_addsub_pd(
        _mm256_mul_pd(d, wr), _mm256_xor_pd(_mm256_mul_pd(ds, wi), neg));
    // e + i*odd = (er - odd_i, ei + odd_r).
    _mm256_storeu_pd(po + 2 * k,
                     _mm256_addsub_pd(e, _mm256_permute_pd(odd, 0x5)));
  }
  if (k < h) {
    const double xr = x[k].real(), xi = x[k].imag();
    const double cr = x[h - k].real(), ci = -x[h - k].imag();
    const double er = 0.5 * (xr + cr), ei = 0.5 * (xi + ci);
    const double dr = 0.5 * (xr - cr), di = 0.5 * (xi - ci);
    const double wr = rtw[k].real(), wi = rtw[k].imag();
    out[k] = Complex(er - (di * wr - dr * wi), ei + (dr * wr + di * wi));
  }
}

double dot(const double* a, const double* b, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
  }
  double s = hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

double dot_reverse(const double* taps, const double* x, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    const __m256d vt = _mm256_loadu_pd(taps + t);
    // x[-t-3..-t] loaded ascending, then reversed to match tap order.
    __m256d vx = _mm256_loadu_pd(x - t - 3);
    vx = _mm256_permute4x64_pd(vx, _MM_SHUFFLE(0, 1, 2, 3));
    acc = _mm256_fmadd_pd(vt, vx, acc);
  }
  double s = hsum(acc);
  for (; t < n; ++t) s += taps[t] * x[-static_cast<std::ptrdiff_t>(t)];
  return s;
}

void linear_interp(const double* in, std::size_t in_size, double ratio,
                   double* out, std::size_t n) {
  const __m256d vratio = _mm256_set1_pd(ratio);
  const __m256d ones = _mm256_set1_pd(1.0);
  // floor(pos) -> int64 lanes via the 2^52 mantissa trick (indices are far
  // below 2^51).
  const __m256d magic = _mm256_set1_pd(4503599627370496.0);  // 2^52
  const __m256i magic_bits = _mm256_castpd_si256(magic);
  const __m256i vsize = _mm256_set1_epi64x(static_cast<long long>(in_size));
  const __m256i one64 = _mm256_set1_epi64x(1);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d idx = _mm256_set_pd(
        static_cast<double>(i + 3), static_cast<double>(i + 2),
        static_cast<double>(i + 1), static_cast<double>(i));
    const __m256d pos = _mm256_mul_pd(idx, vratio);
    const __m256d flo = _mm256_floor_pd(pos);
    const __m256d frac = _mm256_sub_pd(pos, flo);
    const __m256i lo = _mm256_sub_epi64(
        _mm256_castpd_si256(_mm256_add_pd(flo, magic)), magic_bits);
    const __m256i lop1 = _mm256_add_epi64(lo, one64);
    // hi = lo + 1 where lo + 1 < in_size, else lo (cmp mask is -1/0).
    const __m256i hi =
        _mm256_sub_epi64(lo, _mm256_cmpgt_epi64(vsize, lop1));
    const __m256d vlo = _mm256_i64gather_pd(in, lo, 8);
    const __m256d vhi = _mm256_i64gather_pd(in, hi, 8);
    const __m256d r =
        _mm256_add_pd(_mm256_mul_pd(vlo, _mm256_sub_pd(ones, frac)),
                      _mm256_mul_pd(vhi, frac));
    _mm256_storeu_pd(out + i, r);
  }
  // Tail keeps the global output index: pos depends on i, so the generic
  // scalar kernel (which restarts at index 0) cannot be reused here.
  for (; i < n; ++i) {
    const double pos = static_cast<double>(i) * ratio;
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = lo + 1 < in_size ? lo + 1 : lo;
    const double frac = pos - static_cast<double>(lo);
    out[i] = in[lo] * (1.0 - frac) + in[hi] * frac;
  }
}

PearsonMoments pearson_moments(const double* a, const double* b,
                               std::size_t n) {
  __m256d sa = _mm256_setzero_pd();
  __m256d sb = _mm256_setzero_pd();
  __m256d saa = _mm256_setzero_pd();
  __m256d sbb = _mm256_setzero_pd();
  __m256d sab = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d va = _mm256_loadu_pd(a + i);
    const __m256d vb = _mm256_loadu_pd(b + i);
    sa = _mm256_add_pd(sa, va);
    sb = _mm256_add_pd(sb, vb);
    saa = _mm256_fmadd_pd(va, va, saa);
    sbb = _mm256_fmadd_pd(vb, vb, sbb);
    sab = _mm256_fmadd_pd(va, vb, sab);
  }
  PearsonMoments m;
  m.sa = hsum(sa);
  m.sb = hsum(sb);
  m.saa = hsum(saa);
  m.sbb = hsum(sbb);
  m.sab = hsum(sab);
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

double max_value(const double* x, std::size_t n) {
  // maxpd(v, best) is v > best ? v : best, which is std::max(best, v); the
  // fold's result (largest positive value, else +0.0) does not depend on
  // the order, so four accumulators of four lanes each give its bits.
  __m256d b0 = _mm256_setzero_pd(), b1 = b0, b2 = b0, b3 = b0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    b0 = _mm256_max_pd(_mm256_loadu_pd(x + i), b0);
    b1 = _mm256_max_pd(_mm256_loadu_pd(x + i + 4), b1);
    b2 = _mm256_max_pd(_mm256_loadu_pd(x + i + 8), b2);
    b3 = _mm256_max_pd(_mm256_loadu_pd(x + i + 12), b3);
  }
  for (; i + 4 <= n; i += 4) b0 = _mm256_max_pd(_mm256_loadu_pd(x + i), b0);
  b0 = _mm256_max_pd(_mm256_max_pd(b2, b0), _mm256_max_pd(b3, b1));
  __m128d m = _mm_max_pd(_mm256_extractf128_pd(b0, 1),
                         _mm256_castpd256_pd128(b0));
  m = _mm_max_sd(_mm_unpackhi_pd(m, m), m);
  double best = _mm_cvtsd_f64(m);
  for (; i < n; ++i) best = std::max(best, x[i]);
  return best;
}

void divide(double* x, std::size_t n, double d) {
  const __m256d vd = _mm256_set1_pd(d);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_div_pd(_mm256_loadu_pd(x + i), vd));
  }
  for (; i < n; ++i) x[i] /= d;
}

std::size_t census_plain(const double* x, std::size_t n, double prev,
                         double zero_eps, CensusSums& acc) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d eps = _mm256_set1_pd(zero_eps);
  const __m256d big = _mm256_set1_pd(std::numeric_limits<double>::max());
  __m256d peak = _mm256_set1_pd(acc.peak);
  __m128d sum = _mm_set_sd(acc.sum);
  __m128d sum_sq = _mm_set_sd(acc.sum_sq);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    const __m256d before = i == 0 ? _mm256_set_pd(x[2], x[1], x[0], prev)
                                  : _mm256_loadu_pd(x + i - 1);
    const __m256d a = _mm256_andnot_pd(sign, v);
    // Plain: eps < |x| <= max (finite, not a zero) and x != the one before.
    const __m256d plain = _mm256_and_pd(
        _mm256_and_pd(_mm256_cmp_pd(a, eps, _CMP_GT_OQ),
                      _mm256_cmp_pd(a, big, _CMP_LE_OQ)),
        _mm256_cmp_pd(v, before, _CMP_NEQ_UQ));
    if (_mm256_movemask_pd(plain) != 0xF) break;
    peak = _mm256_max_pd(a, peak);
    // The sums, one sample at a time in sample order.
    const __m256d sq = _mm256_mul_pd(v, v);
    const __m128d vlo = _mm256_castpd256_pd128(v);
    const __m128d vhi = _mm256_extractf128_pd(v, 1);
    const __m128d slo = _mm256_castpd256_pd128(sq);
    const __m128d shi = _mm256_extractf128_pd(sq, 1);
    sum = _mm_add_sd(sum, vlo);
    sum_sq = _mm_add_sd(sum_sq, slo);
    sum = _mm_add_sd(sum, _mm_unpackhi_pd(vlo, vlo));
    sum_sq = _mm_add_sd(sum_sq, _mm_unpackhi_pd(slo, slo));
    sum = _mm_add_sd(sum, vhi);
    sum_sq = _mm_add_sd(sum_sq, shi);
    sum = _mm_add_sd(sum, _mm_unpackhi_pd(vhi, vhi));
    sum_sq = _mm_add_sd(sum_sq, _mm_unpackhi_pd(shi, shi));
  }
  if (i > 0) {
    const __m128d m = _mm_max_pd(_mm256_extractf128_pd(peak, 1),
                                 _mm256_castpd256_pd128(peak));
    acc.peak = _mm_cvtsd_f64(_mm_max_sd(_mm_unpackhi_pd(m, m), m));
    acc.sum = _mm_cvtsd_f64(sum);
    acc.sum_sq = _mm_cvtsd_f64(sum_sq);
  }
  return i;
}

std::size_t count_clipped(const double* x, std::size_t n, double level) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d lv = _mm256_set1_pd(level);
  const __m256d big = _mm256_set1_pd(std::numeric_limits<double>::max());
  // Each compare mask lane is all ones (-1 as an integer) where counted.
  __m256i count = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d a = _mm256_andnot_pd(sign, _mm256_loadu_pd(x + i));
    const __m256d hit = _mm256_and_pd(_mm256_cmp_pd(a, lv, _CMP_GE_OQ),
                                      _mm256_cmp_pd(a, big, _CMP_LE_OQ));
    count = _mm256_sub_epi64(count, _mm256_castpd_si256(hit));
  }
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), count);
  auto clipped =
      static_cast<std::size_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
  for (; i < n; ++i) {
    if (std::isfinite(x[i]) && std::abs(x[i]) >= level) ++clipped;
  }
  return clipped;
}

// detail::tanh_approx on four lanes: the scalar kernel's operations in the
// scalar kernel's order (min_pd(clamp, a) keeps a NaN lane, as the scalar
// ternary does).
inline __m256d tanh_approx(__m256d u) {
  namespace c = detail::tanh_approx;
  const __m256d sign_bit = _mm256_set1_pd(-0.0);
  const __m256d magic = _mm256_set1_pd(4503599627370496.0);  // 2^52
  const __m256d abs_u = _mm256_andnot_pd(sign_bit, u);
  const __m256d a = _mm256_min_pd(_mm256_set1_pd(c::kClamp), abs_u);
  const __m256d y = _mm256_add_pd(a, a);
  const __m256d k = _mm256_floor_pd(_mm256_add_pd(
      _mm256_mul_pd(y, _mm256_set1_pd(c::kInvLn2)), _mm256_set1_pd(0.5)));
  const __m256d r = _mm256_sub_pd(
      _mm256_sub_pd(y, _mm256_mul_pd(k, _mm256_set1_pd(c::kLn2Hi))),
      _mm256_mul_pd(k, _mm256_set1_pd(c::kLn2Lo)));
  const auto lin = [r](int j) {  // cq[j] + cq[j + 1] * r
    return _mm256_add_pd(_mm256_set1_pd(c::kExpm1Q[j]),
                         _mm256_mul_pd(_mm256_set1_pd(c::kExpm1Q[j + 1]), r));
  };
  const auto mad = [](__m256d s, __m256d t, __m256d x) {  // s + t * x
    return _mm256_add_pd(s, _mm256_mul_pd(t, x));
  };
  const __m256d r2 = _mm256_mul_pd(r, r);
  const __m256d r4 = _mm256_mul_pd(r2, r2);
  const __m256d q03 = mad(lin(0), lin(2), r2);
  const __m256d q47 = mad(lin(4), lin(6), r2);
  const __m256d q8b = mad(lin(8), lin(10), r2);
  const __m256d q = mad(mad(q03, q47, r4), q8b, _mm256_mul_pd(r4, r4));
  const __m256d p = mad(r, r2, q);
  const __m256i kbits = _mm256_sub_epi64(
      _mm256_castpd_si256(_mm256_add_pd(k, magic)), _mm256_castpd_si256(magic));
  const __m256d two = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_add_epi64(kbits, _mm256_set1_epi64x(1023)), 52));
  const __m256d e = _mm256_add_pd(_mm256_mul_pd(two, p),
                                  _mm256_sub_pd(two, _mm256_set1_pd(1.0)));
  const __m256d t = _mm256_div_pd(e, _mm256_add_pd(e, _mm256_set1_pd(2.0)));
  return _mm256_or_pd(t, _mm256_and_pd(u, sign_bit));
}

void soft_clip(double* x, std::size_t n, double drive, double peak,
               double scale) {
  const __m256d vdrive = _mm256_set1_pd(drive);
  const __m256d vpeak = _mm256_set1_pd(peak);
  const __m256d vscale = _mm256_set1_pd(scale);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d u =
        _mm256_div_pd(_mm256_mul_pd(vdrive, _mm256_loadu_pd(x + i)), vpeak);
    _mm256_storeu_pd(x + i, _mm256_mul_pd(tanh_approx(u), vscale));
  }
  if (i < n) scalar::soft_clip(x + i, n - i, drive, peak, scale);
}

}  // namespace

const Ops kOps = {
    .level = Level::kAvx2,
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

}  // namespace vibguard::dsp::simd::avx2

#endif  // VIBGUARD_SIMD_AVX2
