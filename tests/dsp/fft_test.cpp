#include "dsp/fft.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dsp/fft_plan.hpp"

namespace vibguard::dsp {
namespace {

// Naive O(n^2) complex DFT of a real input: all n bins.
std::vector<Complex> naive_dft(const std::vector<double>& x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n, Complex(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = -2.0 * std::numbers::pi *
                           static_cast<double>(k * t) /
                           static_cast<double>(n);
      out[k] += x[t] * Complex(std::cos(angle), std::sin(angle));
    }
  }
  return out;
}

std::vector<double> gaussian_vector(Rng& rng, std::size_t n) {
  std::vector<double> x(n);
  for (auto& v : x) v = rng.gaussian();
  return x;
}

std::vector<double> zero_padded(const std::vector<double>& x, std::size_t m) {
  std::vector<double> out(m, 0.0);
  std::copy(x.begin(), x.end(), out.begin());
  return out;
}

std::vector<Complex> planned_rfft(const std::vector<double>& x,
                                  std::size_t m) {
  std::vector<Complex> spec(m / 2 + 1);
  get_plan(m).rfft(x, spec);
  return spec;
}

// The parameter is a signal length n; plans run at m = next_pow2(n) with the
// signal zero-padded, so the odd and non-power-of-two lengths check the
// padding as much as the transform.
class FftSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeTest, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  const std::size_t m = next_pow2(n);
  Rng rng(n);
  const auto x = gaussian_vector(rng, n);
  const auto mag = magnitude_spectrum(x);
  const auto slow = naive_dft(zero_padded(x, m));
  ASSERT_EQ(mag.size(), m / 2 + 1);
  for (std::size_t k = 0; k < mag.size(); ++k) {
    EXPECT_NEAR(mag[k], std::abs(slow[k]) / static_cast<double>(n), 1e-8 * m)
        << "bin " << k;
  }
}

TEST_P(FftSizeTest, InverseRoundTrip) {
  const std::size_t n = GetParam();
  const std::size_t m = next_pow2(n);
  Rng rng(n * 7 + 1);
  const auto x = gaussian_vector(rng, n);
  const auto spec = planned_rfft(x, m);
  std::vector<double> back(n);
  get_plan(m).irfft(spec, back);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(back[i], x[i], 1e-9 * m);
  }
}

TEST_P(FftSizeTest, ParsevalHolds) {
  const std::size_t n = GetParam();
  const std::size_t m = next_pow2(n);
  Rng rng(n * 13 + 5);
  const auto x = gaussian_vector(rng, n);
  double time_energy = 0.0;
  for (double v : x) time_energy += v * v;
  // The one-sided spectrum counts every bin but 0 and m/2 twice.
  const auto spec = planned_rfft(x, m);
  double freq_energy = 0.0;
  for (std::size_t k = 0; k < spec.size(); ++k) {
    const bool edge = k == 0 || 2 * k == m;
    freq_energy += (edge ? 1.0 : 2.0) * std::norm(spec[k]);
  }
  EXPECT_NEAR(freq_energy / static_cast<double>(m), time_energy, 1e-8 * m);
}

TEST_P(FftSizeTest, RfftMatchesComplexFftReference) {
  const std::size_t n = GetParam();
  const std::size_t m = next_pow2(n);
  Rng rng(n * 3 + 2);
  const auto x = gaussian_vector(rng, n);
  // The complex transform of the real (padded) input: rfft keeps bins
  // 0..m/2, and the bins it drops are their conjugates.
  const auto full = naive_dft(zero_padded(x, m));
  const auto half = planned_rfft(x, m);
  ASSERT_EQ(half.size(), m / 2 + 1);
  const double tol = 1e-9 * static_cast<double>(m) + 1e-12;
  for (std::size_t k = 0; k < half.size(); ++k) {
    EXPECT_NEAR(half[k].real(), full[k].real(), tol) << "bin " << k;
    EXPECT_NEAR(half[k].imag(), full[k].imag(), tol) << "bin " << k;
    if (k > 0 && k < m - k) {
      EXPECT_NEAR(half[k].real(), full[m - k].real(), tol) << "bin " << k;
      EXPECT_NEAR(half[k].imag(), -full[m - k].imag(), tol) << "bin " << k;
    }
  }
}

TEST_P(FftSizeTest, PlannedAndFreeFunctionPathsAgree) {
  const std::size_t n = GetParam();
  const std::size_t m = next_pow2(n);
  Rng rng(n * 17 + 3);
  const auto x = gaussian_vector(rng, n);

  // A freshly constructed plan and the cached one produce identical
  // results bit for bit, and magnitude_spectrum is |rfft| / n.
  const FftPlan plan(m);
  std::vector<Complex> planned(m / 2 + 1);
  plan.rfft(x, planned);
  const auto cached = planned_rfft(x, m);
  const auto mag = magnitude_spectrum(x);
  const double norm = 1.0 / static_cast<double>(n);
  ASSERT_EQ(mag.size(), planned.size());
  for (std::size_t k = 0; k < planned.size(); ++k) {
    EXPECT_EQ(planned[k], cached[k]) << "bin " << k;
    EXPECT_EQ(mag[k], std::abs(planned[k]) * norm) << "bin " << k;
  }

  // Inverse round trip through the same plan recovers the input.
  std::vector<double> back(n);
  plan.irfft(planned, back);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(back[i], x[i], 1e-9 * static_cast<double>(m));
  }
}

TEST_P(FftSizeTest, InPlaceMagnitudeMatchesAllocatingOverload) {
  const std::size_t n = GetParam();
  const std::size_t m = next_pow2(n);
  Rng rng(n * 23 + 7);
  const auto x = gaussian_vector(rng, n);
  // The allocation-free spectrum is the plan's power into a caller's
  // buffer, normalized by m; the allocating magnitude_spectrum is
  // normalized by the signal's own length n.
  const auto allocated = magnitude_spectrum(x);
  std::vector<double> in_place(m / 2 + 1, -1.0);
  get_plan(m).power(zero_padded(x, m), in_place);
  ASSERT_EQ(allocated.size(), in_place.size());
  const double scale = static_cast<double>(m) / static_cast<double>(n);
  for (std::size_t k = 0; k < allocated.size(); ++k) {
    EXPECT_NEAR(std::sqrt(in_place[k]) * scale, allocated[k],
                1e-12 * (1.0 + allocated[k]))
        << "bin " << k;
  }
}

// Powers of two (1..256), odd composites (45, 243, 255), primes
// (3, 5, 7, 17, 31) and even non-powers-of-two (12, 100): every length pads
// to a power-of-two plan, the powers of two by nothing.
INSTANTIATE_TEST_SUITE_P(PowersAndOddSizes, FftSizeTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16, 17,
                                           31, 32, 45, 64, 100, 128, 243,
                                           255, 256));

TEST(FftTest, PlanRejectsNonPowerOfTwoSizes) {
  EXPECT_THROW(FftPlan(0), InvalidArgument);
  EXPECT_THROW(FftPlan(100), InvalidArgument);
  EXPECT_THROW(get_plan(400), InvalidArgument);
  EXPECT_EQ(get_plan(512).size(), 512u);
}

TEST(FftTest, ToneLandsInCorrectBin) {
  const std::size_t n = 256;
  const std::size_t bin = 19;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::cos(2.0 * std::numbers::pi * static_cast<double>(bin * i) /
                    static_cast<double>(n));
  }
  const auto mag = magnitude_spectrum(x);
  // A unit cosine at an exact bin has one-sided normalized magnitude 1/2.
  EXPECT_NEAR(mag[bin], 0.5, 1e-9);
  for (std::size_t k = 0; k < mag.size(); ++k) {
    if (k != bin) {
      EXPECT_LT(mag[k], 1e-9);
    }
  }
}

TEST(FftTest, MagnitudeSpectrumSizeIsHalfPlusOne) {
  // 100 samples pad to a 128-point transform: 65 bins.
  std::vector<double> x(100, 1.0);
  EXPECT_EQ(magnitude_spectrum(x).size(), 65u);
  EXPECT_EQ(magnitude_spectrum(std::vector<double>(64, 1.0)).size(), 33u);
  EXPECT_TRUE(magnitude_spectrum({}).empty());
}

TEST(FftTest, DcSignalAllEnergyInBinZero) {
  std::vector<double> x(64, 3.0);
  const auto mag = magnitude_spectrum(x);
  EXPECT_NEAR(mag[0], 3.0, 1e-9);
  for (std::size_t k = 1; k < mag.size(); ++k) EXPECT_LT(mag[k], 1e-9);
}

TEST(FftTest, BinFrequency) {
  EXPECT_DOUBLE_EQ(bin_frequency(0, 64, 200.0), 0.0);
  EXPECT_DOUBLE_EQ(bin_frequency(32, 64, 200.0), 100.0);
  EXPECT_DOUBLE_EQ(bin_frequency(1, 100, 1000.0), 10.0);
}

TEST(FftTest, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(100));
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(5), 8u);
  EXPECT_EQ(next_pow2(64), 64u);
  EXPECT_EQ(next_pow2(65), 128u);
}

TEST(FftTest, LinearityProperty) {
  Rng rng(99);
  const std::size_t n = 64;
  std::vector<double> a(n), b(n), sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.gaussian();
    b[i] = rng.gaussian();
    sum[i] = 2.0 * a[i] + 3.0 * b[i];
  }
  const auto fa = planned_rfft(a, n);
  const auto fb = planned_rfft(b, n);
  const auto fsum = planned_rfft(sum, n);
  for (std::size_t k = 0; k < fa.size(); ++k) {
    const Complex expect = 2.0 * fa[k] + 3.0 * fb[k];
    EXPECT_NEAR(std::abs(fsum[k] - expect), 0.0, 1e-9);
  }
}

}  // namespace
}  // namespace vibguard::dsp
