// Dispatch-layer tests: level selection/override plumbing, plus every
// kernel cross-checked against the scalar reference at every level this
// build + CPU makes available. Elementwise kernels must match scalar
// bit-for-bit (that is the contract that makes VIBGUARD_SIMD=scalar
// reproduce pre-dispatch scores exactly); reduction kernels reassociate
// and are held to an ULP-scaled tolerance instead.
#include "dsp/simd.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace vibguard::dsp::simd {
namespace {

// Restores the dispatch level active at construction time.
class LevelGuard {
 public:
  LevelGuard() : prev_(active_level()) {}
  ~LevelGuard() { set_level(prev_); }

 private:
  Level prev_;
};

std::vector<double> random_vector(Rng& rng, std::size_t n) {
  return rng.gaussian_vector(n);
}

std::vector<Complex> random_complex(Rng& rng, std::size_t n) {
  const auto re = rng.gaussian_vector(n);
  const auto im = rng.gaussian_vector(n);
  std::vector<Complex> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = Complex(re[i], im[i]);
  return out;
}

const std::vector<std::size_t> kSizes = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 31, 100};

TEST(SimdLevelTest, ParseLevelRecognizedNames) {
  Level level = Level::kAvx2;
  EXPECT_TRUE(parse_level("scalar", level));
  EXPECT_EQ(level, Level::kScalar);
  EXPECT_TRUE(parse_level("SCALAR", level));
  EXPECT_EQ(level, Level::kScalar);
  EXPECT_TRUE(parse_level("avx2", level));
  EXPECT_EQ(level, Level::kAvx2);
  EXPECT_TRUE(parse_level("neon", level));
  EXPECT_EQ(level, Level::kNeon);
  EXPECT_TRUE(parse_level("auto", level));
  EXPECT_EQ(level, detect_level());
}

TEST(SimdLevelTest, ParseLevelRejectsGarbage) {
  Level level = Level::kScalar;
  EXPECT_FALSE(parse_level("sse9", level));
  EXPECT_FALSE(parse_level("", level));
  EXPECT_FALSE(parse_level(nullptr, level));
}

TEST(SimdLevelTest, AvailableLevelsAlwaysIncludeScalar) {
  const auto levels = available_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.back(), Level::kScalar);
  // Best-first ordering: the head is what auto-detection picks.
  EXPECT_EQ(levels.front(), detect_level());
}

TEST(SimdLevelTest, SetLevelRoundTrips) {
  LevelGuard guard;
  for (Level level : available_levels()) {
    EXPECT_TRUE(set_level(level));
    EXPECT_EQ(active_level(), level);
    EXPECT_EQ(ops().level, level);
  }
}

TEST(SimdLevelTest, ScalarTableIsScalar) {
  EXPECT_EQ(scalar::kOps.level, Level::kScalar);
}

TEST(SimdKernelTest, MultiplyBitIdenticalAcrossLevels) {
  Rng rng(101);
  LevelGuard guard;
  for (std::size_t n : kSizes) {
    const auto a = random_vector(rng, n);
    const auto b = random_vector(rng, n);
    std::vector<double> ref(n, 0.0);
    scalar::multiply(a.data(), b.data(), ref.data(), n);
    for (Level level : available_levels()) {
      ASSERT_TRUE(set_level(level));
      std::vector<double> got(n, -1.0);
      ops().multiply(a.data(), b.data(), got.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[i], ref[i])
            << level_name(level) << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(SimdKernelTest, ButterflyStageBitIdenticalAcrossLevels) {
  Rng rng(102);
  LevelGuard guard;
  for (std::size_t half : {1u, 2u, 3u, 4u, 5u, 8u, 16u, 33u}) {
    for (bool inverse : {false, true}) {
      const auto lo0 = random_complex(rng, half);
      const auto hi0 = random_complex(rng, half);
      const auto tw = random_complex(rng, half);
      auto lo_ref = lo0;
      auto hi_ref = hi0;
      scalar::butterfly_stage(lo_ref.data(), hi_ref.data(), tw.data(), half,
                              inverse);
      for (Level level : available_levels()) {
        ASSERT_TRUE(set_level(level));
        auto lo = lo0;
        auto hi = hi0;
        ops().butterfly_stage(lo.data(), hi.data(), tw.data(), half, inverse);
        for (std::size_t j = 0; j < half; ++j) {
          EXPECT_EQ(lo[j].real(), lo_ref[j].real())
              << level_name(level) << " half=" << half << " j=" << j;
          EXPECT_EQ(lo[j].imag(), lo_ref[j].imag());
          EXPECT_EQ(hi[j].real(), hi_ref[j].real());
          EXPECT_EQ(hi[j].imag(), hi_ref[j].imag());
        }
      }
    }
  }
}

// The swap-pass form fft_gather_stage2_4 replaces: zero-pad `src` to n
// pairs, permute into bit-reversed order, then run the len = 2 and len = 4
// butterflies in place.
std::vector<Complex> swap_then_stage2_4(const std::vector<double>& src,
                                        std::size_t n, bool inverse) {
  std::vector<Complex> d(n, Complex(0.0, 0.0));
  for (std::size_t i = 0; i < src.size(); ++i) {
    reinterpret_cast<double*>(d.data())[i] = src[i];
  }
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(d[i], d[j]);
  }
  for (std::size_t i = 0; i + 1 < n; i += 2) {
    const Complex u = d[i];
    const Complex v = d[i + 1];
    d[i] = u + v;
    d[i + 1] = u - v;
  }
  for (std::size_t i = 0; n >= 4 && i < n; i += 4) {
    const Complex u0 = d[i];
    const Complex v0 = d[i + 2];
    d[i] = u0 + v0;
    d[i + 2] = u0 - v0;
    const Complex x = d[i + 3];
    const Complex v1 = inverse ? Complex(-x.imag(), x.real())
                               : Complex(x.imag(), -x.real());
    const Complex u1 = d[i + 1];
    d[i + 1] = u1 + v1;
    d[i + 3] = u1 - v1;
  }
  return d;
}

// rev4[q] = bit-reversal of 4q over log2(n) bits.
std::vector<std::uint32_t> rev4_table(std::size_t n) {
  std::vector<std::uint32_t> rev4(n / 4);
  const int bits = std::countr_zero(n);
  for (std::size_t q = 0; q < rev4.size(); ++q) {
    std::uint32_t r = 0;
    for (int b = 0; b < bits; ++b) {
      if (((4 * q) >> b) & 1) r |= std::uint32_t{1} << (bits - 1 - b);
    }
    rev4[q] = r;
  }
  return rev4;
}

bool same_bits(Complex a, Complex b) {
  return std::bit_cast<std::uint64_t>(a.real()) ==
             std::bit_cast<std::uint64_t>(b.real()) &&
         std::bit_cast<std::uint64_t>(a.imag()) ==
             std::bit_cast<std::uint64_t>(b.imag());
}

TEST(SimdKernelTest, FftGatherStage2_4BitIdenticalAcrossLevels) {
  Rng rng(107);
  LevelGuard guard;
  for (std::size_t n : {1u, 2u, 4u, 8u, 16u, 64u, 256u, 4096u}) {
    const auto rev4 = rev4_table(n);
    // Whole sources, zero-padded ones (half, a quarter plus one), odd
    // lengths that half-fill their last pair, and the empty source.
    for (std::size_t len : {2 * n, 2 * n - 1, n, n / 2 + 1, std::size_t{3},
                            std::size_t{1}, std::size_t{0}}) {
      if (len > 2 * n) continue;
      auto src = random_vector(rng, len);
      // Signed zeros in the source must survive; padding must read +0.0.
      if (len > 0) src[len / 2] = -0.0;
      for (bool inverse : {false, true}) {
        const auto want = swap_then_stage2_4(src, n, inverse);
        for (Level level : available_levels()) {
          ASSERT_TRUE(set_level(level));
          std::vector<Complex> got(n, Complex(7.0, 7.0));
          ops().fft_gather_stage2_4(got.data(), src.data(), len, rev4.data(),
                                    n, inverse);
          for (std::size_t i = 0; i < n; ++i) {
            EXPECT_TRUE(same_bits(got[i], want[i]))
                << level_name(level) << " n=" << n << " len=" << len
                << " inverse=" << inverse << " i=" << i << ": got "
                << got[i] << ", want " << want[i];
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, FftStagesBitIdenticalAcrossLevels) {
  Rng rng(108);
  LevelGuard guard;
  // The kernel treats the stage-major twiddle table generically, so random
  // complex values in place of unit roots still exercise it fully. The table
  // holds n - 4 entries (half = 4, 8, ..., n/2).
  for (std::size_t n : {8u, 16u, 64u, 256u, 1024u}) {
    for (bool inverse : {false, true}) {
      const auto d0 = random_complex(rng, n);
      const auto tw = random_complex(rng, n - 4);
      auto ref = d0;
      scalar::fft_stages(ref.data(), n, tw.data(), inverse);
      for (Level level : available_levels()) {
        ASSERT_TRUE(set_level(level));
        auto got = d0;
        ops().fft_stages(got.data(), n, tw.data(), inverse);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(got[i].real(), ref[i].real())
              << level_name(level) << " n=" << n << " inverse=" << inverse
              << " i=" << i;
          EXPECT_EQ(got[i].imag(), ref[i].imag());
        }
      }
    }
  }
}

TEST(SimdKernelTest, RfftSplitPowerBitIdenticalAcrossLevels) {
  Rng rng(104);
  LevelGuard guard;
  for (std::size_t h : {2u, 3u, 4u, 8u, 16u, 129u, 256u}) {
    const auto z = random_complex(rng, h);
    const auto rtw = random_complex(rng, h + 1);
    const double norm2 = 1.0 / static_cast<double>(4 * h * h);
    std::vector<double> ref(h + 1, 0.0);
    scalar::rfft_split_power(z.data(), rtw.data(), h, norm2, ref.data());
    for (Level level : available_levels()) {
      ASSERT_TRUE(set_level(level));
      std::vector<double> got(h + 1, 0.0);
      ops().rfft_split_power(z.data(), rtw.data(), h, norm2, got.data());
      // The kernel owns bins 1..h-1.
      for (std::size_t k = 1; k < h; ++k) {
        EXPECT_EQ(got[k], ref[k])
            << level_name(level) << " h=" << h << " k=" << k;
      }
    }
  }
}

TEST(SimdKernelTest, RealFftSplitAndMergeBitIdenticalAcrossLevels) {
  Rng rng(107);
  LevelGuard guard;
  for (std::size_t h : {2u, 3u, 4u, 5u, 8u, 16u, 129u, 256u}) {
    const auto z = random_complex(rng, h + 1);
    const auto rtw = random_complex(rng, h + 1);
    std::vector<Complex> split_ref(h + 1), merge_ref(h + 1);
    scalar::rfft_split(z.data(), rtw.data(), h, split_ref.data());
    scalar::irfft_merge(z.data(), rtw.data(), h, merge_ref.data());
    for (Level level : available_levels()) {
      ASSERT_TRUE(set_level(level));
      std::vector<Complex> split(h + 1), merge(h + 1);
      ops().rfft_split(z.data(), rtw.data(), h, split.data());
      ops().irfft_merge(z.data(), rtw.data(), h, merge.data());
      // The kernels own bins 1..h-1.
      for (std::size_t k = 1; k < h; ++k) {
        EXPECT_EQ(split[k].real(), split_ref[k].real())
            << level_name(level) << " h=" << h << " k=" << k;
        EXPECT_EQ(split[k].imag(), split_ref[k].imag());
        EXPECT_EQ(merge[k].real(), merge_ref[k].real())
            << level_name(level) << " h=" << h << " k=" << k;
        EXPECT_EQ(merge[k].imag(), merge_ref[k].imag());
      }
    }
  }
}

TEST(SimdKernelTest, LinearInterpBitIdenticalAcrossLevels) {
  Rng rng(105);
  LevelGuard guard;
  const auto in = random_vector(rng, 1000);
  struct Case {
    double ratio;
    std::size_t n;
  };
  // Down- and up-sampling ratios; 999.0/48.0 drives the final outputs onto
  // the in[in_size - 1] clamp; small n exercises the pure-tail path where a
  // naive offset-zero fallback would recompute positions from zero.
  const Case cases[] = {{0.37, 2000}, {2.5, 399},   {1.0, 1000},
                       {999.0 / 48.0, 49}, {0.123, 5}, {3.7, 3}};
  for (const Case& c : cases) {
    std::vector<double> ref(c.n, 0.0);
    scalar::linear_interp(in.data(), in.size(), c.ratio, ref.data(), c.n);
    for (Level level : available_levels()) {
      ASSERT_TRUE(set_level(level));
      std::vector<double> got(c.n, -1.0);
      ops().linear_interp(in.data(), in.size(), c.ratio, got.data(), c.n);
      for (std::size_t i = 0; i < c.n; ++i) {
        EXPECT_EQ(got[i], ref[i])
            << level_name(level) << " ratio=" << c.ratio << " i=" << i;
      }
    }
  }
}

TEST(SimdKernelTest, SoftClipBitIdenticalAcrossLevels) {
  Rng rng(109);
  LevelGuard guard;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Both speaker drives (distortion 0.02 and 0.05), a clip at the peak and
  // one well past it, and inputs that hit the clamp and the special values.
  for (double drive : {1.08, 1.2}) {
    for (std::size_t n : kSizes) {
      auto x = random_vector(rng, n);
      if (n >= 8) {
        x[1] = 0.0;
        x[2] = -0.0;
        x[3] = 1e-310;
        x[4] = 400.0;
        x[5] = -kInf;
      }
      const double peak = 0.75;
      const double scale = peak / std::tanh(drive);
      std::vector<double> ref = x;
      scalar::soft_clip(ref.data(), n, drive, peak, scale);
      for (Level level : available_levels()) {
        ASSERT_TRUE(set_level(level));
        std::vector<double> got = x;
        ops().soft_clip(got.data(), n, drive, peak, scale);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(std::signbit(got[i]), std::signbit(ref[i]));
          EXPECT_EQ(got[i], ref[i])
              << level_name(level) << " drive=" << drive << " n=" << n
              << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdKernelTest, SoftClipTanhMatchesStdTanh) {
  // With drive = peak = scale = 1 the kernel returns the shared tanh itself.
  std::vector<double> args;
  for (double s = std::numeric_limits<double>::denorm_min(); s < 2.2e-308;
       s *= 3.0) {
    args.push_back(s);
  }
  args.push_back(std::numeric_limits<double>::min());
  // |u| from 1e-8 to 25, log-spaced, one million points.
  constexpr std::size_t kLogPoints = 1000000;
  const double lo = std::log(1e-8), hi = std::log(25.0);
  for (std::size_t i = 0; i < kLogPoints; ++i) {
    args.push_back(std::exp(lo + (hi - lo) * static_cast<double>(i) /
                                     static_cast<double>(kLogPoints - 1)));
  }
  args.push_back(1.08);  // the two speaker drives, exactly
  args.push_back(1.2);
  const std::size_t positive = args.size();
  for (std::size_t i = 0; i < positive; ++i) args.push_back(-args[i]);

  LevelGuard guard;
  for (Level level : available_levels()) {
    ASSERT_TRUE(set_level(level));
    std::vector<double> got = args;
    ops().soft_clip(got.data(), got.size(), 1.0, 1.0, 1.0);
    double worst = 0.0;
    std::size_t worst_i = 0;
    for (std::size_t i = 0; i < args.size(); ++i) {
      const double want = std::tanh(args[i]);
      const double err = std::abs(got[i] - want) / std::abs(want);
      if (!(err <= worst)) {
        worst = err;
        worst_i = i;
      }
    }
    EXPECT_LE(worst, 1e-15) << level_name(level) << " at u=" << args[worst_i];

    double special[] = {0.0, -0.0, std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::quiet_NaN()};
    ops().soft_clip(special, 5, 1.0, 1.0, 1.0);
    EXPECT_EQ(special[0], 0.0);
    EXPECT_FALSE(std::signbit(special[0]));
    EXPECT_EQ(special[1], 0.0);
    EXPECT_TRUE(std::signbit(special[1]));
    EXPECT_EQ(special[2], 1.0) << level_name(level);
    EXPECT_EQ(special[3], -1.0) << level_name(level);
    EXPECT_TRUE(std::isnan(special[4])) << level_name(level);
  }
}

TEST(SimdKernelTest, DotMatchesScalarWithinTolerance) {
  Rng rng(106);
  LevelGuard guard;
  for (std::size_t n : kSizes) {
    const auto a = random_vector(rng, n);
    const auto b = random_vector(rng, n);
    const double ref = scalar::dot(a.data(), b.data(), n);
    double mag = 0.0;
    for (std::size_t i = 0; i < n; ++i) mag += std::abs(a[i] * b[i]);
    for (Level level : available_levels()) {
      ASSERT_TRUE(set_level(level));
      const double got = ops().dot(a.data(), b.data(), n);
      EXPECT_NEAR(got, ref, 1e-12 * (1.0 + mag))
          << level_name(level) << " n=" << n;
    }
  }
}

TEST(SimdKernelTest, DotReverseMatchesScalarWithinTolerance) {
  Rng rng(107);
  LevelGuard guard;
  for (std::size_t n : kSizes) {
    if (n == 0) continue;
    const auto taps = random_vector(rng, n);
    const auto x = random_vector(rng, n);
    // x points at the newest sample: the kernel reads x[0], x[-1], ...
    const double* newest = x.data() + n - 1;
    const double ref = scalar::dot_reverse(taps.data(), newest, n);
    double mag = 0.0;
    for (std::size_t t = 0; t < n; ++t) mag += std::abs(taps[t] * newest[-static_cast<std::ptrdiff_t>(t)]);
    for (Level level : available_levels()) {
      ASSERT_TRUE(set_level(level));
      const double got = ops().dot_reverse(taps.data(), newest, n);
      EXPECT_NEAR(got, ref, 1e-12 * (1.0 + mag))
          << level_name(level) << " n=" << n;
    }
  }
}

TEST(SimdKernelTest, PearsonMomentsMatchScalarWithinTolerance) {
  Rng rng(108);
  LevelGuard guard;
  for (std::size_t n : kSizes) {
    const auto a = random_vector(rng, n);
    const auto b = random_vector(rng, n);
    const PearsonMoments ref = scalar::pearson_moments(a.data(), b.data(), n);
    const double tol = 1e-12 * (1.0 + static_cast<double>(n));
    for (Level level : available_levels()) {
      ASSERT_TRUE(set_level(level));
      const PearsonMoments got = ops().pearson_moments(a.data(), b.data(), n);
      EXPECT_NEAR(got.sa, ref.sa, tol) << level_name(level) << " n=" << n;
      EXPECT_NEAR(got.sb, ref.sb, tol);
      EXPECT_NEAR(got.saa, ref.saa, tol * 4.0);
      EXPECT_NEAR(got.sbb, ref.sbb, tol * 4.0);
      EXPECT_NEAR(got.sab, ref.sab, tol * 4.0);
    }
  }
}

}  // namespace
}  // namespace vibguard::dsp::simd
