// Differential fuzz driver: every optimized kernel is cross-checked against
// the deliberately naive implementations in tests/reference on randomized
// sizes, rates and contents. All randomness flows through vibguard::Rng
// seeded from fuzz_base_seed() + trial index (no wall clock anywhere), so
// each trial is reproducible from the seed printed on failure — see
// fuzz_util.hpp for the replay recipe.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <numbers>
#include <span>
#include <string>
#include <vector>

#include "attacks/attack.hpp"
#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/signal.hpp"
#include "common/wav.hpp"
#include "core/quality.hpp"
#include "core/segmentation.hpp"
#include "core/streaming.hpp"
#include "dsp/correlate.hpp"
#include "dsp/fft.hpp"
#include "dsp/fft_plan.hpp"
#include "dsp/filter.hpp"
#include "dsp/mel.hpp"
#include "dsp/resample.hpp"
#include "dsp/simd.hpp"
#include "dsp/stft.hpp"
#include "dsp/window.hpp"
#include "eval/experiment.hpp"
#include "eval/metrics.hpp"
#include "eval/scenario.hpp"
#include "fuzz/fuzz_util.hpp"
#include "reference/reference_dft.hpp"
#include "reference/reference_dsp.hpp"
#include "reference/reference_fft.hpp"
#include "reference/reference_metrics.hpp"
#include "reference/reference_quality.hpp"

namespace vibguard {
namespace {

std::vector<double> random_vector(Rng& rng, std::size_t n, double lo,
                                  double hi) {
  std::vector<double> out(n);
  for (double& v : out) v = rng.uniform(lo, hi);
  return out;
}

void expect_complex_near(std::span<const dsp::Complex> got,
                         std::span<const dsp::Complex> want, double tol) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].real(), want[i].real(), tol) << "bin " << i;
    EXPECT_NEAR(got[i].imag(), want[i].imag(), tol) << "bin " << i;
  }
}

TEST(FuzzDifferential, RfftMatchesNaiveDft) {
  const std::size_t iters = testing::fuzz_iterations();
  const std::uint64_t base = testing::fuzz_base_seed();
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);
    // Any length: the plan runs at the next power of two m and the input
    // is zero-padded to it.
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 128));
    const std::size_t m = dsp::next_pow2(n);
    const auto x = random_vector(rng, n, -1.0, 1.0);
    std::vector<double> padded(m, 0.0);
    std::copy(x.begin(), x.end(), padded.begin());
    const double tol = 1e-9 * static_cast<double>(m) + 1e-10;

    const auto spec_ref = testing::naive_rfft(padded);
    std::vector<dsp::Complex> spec(m / 2 + 1);
    dsp::get_plan(m).rfft(x, spec);
    expect_complex_near(spec, spec_ref, tol);

    // magnitude_spectrum: the padded spectrum normalized by n, not m.
    const auto mag = dsp::magnitude_spectrum(x);
    ASSERT_EQ(mag.size(), spec_ref.size());
    for (std::size_t k = 0; k < mag.size(); ++k) {
      EXPECT_NEAR(mag[k], std::abs(spec_ref[k]) / static_cast<double>(n),
                  tol)
          << "bin " << k;
    }

    std::vector<double> pow(m / 2 + 1, 0.0);
    dsp::get_plan(m).power(padded, pow);
    const auto pow_ref = testing::naive_power_spectrum(padded);
    for (std::size_t k = 0; k < pow.size(); ++k) {
      EXPECT_NEAR(pow[k], pow_ref[k], tol) << "bin " << k;
    }
  }
}

TEST(FuzzDifferential, IrfftRoundTripsAndMatchesNaiveDft) {
  const std::size_t iters = testing::fuzz_iterations();
  const std::uint64_t base = testing::fuzz_base_seed();
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);
    // Powers of two 2..2048, so small and large plans both get exercised.
    const double log_half = rng.uniform(0.0, 11.0);
    const std::size_t n = std::size_t{1} << (1 + static_cast<int>(log_half));
    SCOPED_TRACE("n = " + std::to_string(n));
    const auto x = random_vector(rng, n, -1.0, 1.0);
    const dsp::FftPlan& plan = dsp::get_plan(n);
    const double tol = 1e-12 * static_cast<double>(n) + 1e-12;

    // Round trip: irfft(rfft(x)) == x.
    std::vector<dsp::Complex> spec(n / 2 + 1);
    plan.rfft(x, spec);
    std::vector<double> back(n);
    plan.irfft(spec, back);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(back[i], x[i], tol) << "sample " << i;
    }

    // A random one-sided spectrum (not necessarily from a real signal's
    // rfft: X[0] and X[n/2] carry imaginary parts irfft must ignore)
    // against the direct inverse DFT.
    std::vector<dsp::Complex> rand_spec(n / 2 + 1);
    for (auto& v : rand_spec) {
      v = dsp::Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    }
    std::vector<double> got(n);
    plan.irfft(rand_spec, got);
    const auto want = testing::naive_irfft(rand_spec, n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(got[i], want[i], tol) << "sample " << i;
    }

    // A shorter output keeps exactly the leading samples, and rfft of a
    // short input equals rfft of the explicitly zero-padded one.
    const auto keep = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n)));
    std::vector<double> head(keep);
    plan.irfft(rand_spec, head);
    for (std::size_t i = 0; i < keep; ++i) EXPECT_EQ(head[i], got[i]);
    std::vector<double> padded(n, 0.0);
    std::copy_n(x.begin(), keep, padded.begin());
    std::vector<dsp::Complex> short_spec(n / 2 + 1), pad_spec(n / 2 + 1);
    plan.rfft(std::span<const double>(x.data(), keep), short_spec);
    plan.rfft(padded, pad_spec);
    for (std::size_t k = 0; k < short_spec.size(); ++k) {
      EXPECT_EQ(short_spec[k], pad_spec[k]) << "bin " << k;
    }
  }
}

// Exact equality down to the sign of zero: one failure per call, naming
// the first differing element and how many differ.
// `any_nan_equal` makes every NaN equal to every other: which NaN an
// operation returns when both operands are NaN is the hardware's choice of
// operand, and compilers may commute an add or a multiply, so a NaN's sign
// and payload are not part of the bit-identity contract.
void expect_same_bits(std::span<const double> got,
                      std::span<const double> want, const std::string& what,
                      bool any_nan_equal = false) {
  ASSERT_EQ(got.size(), want.size()) << what;
  std::size_t first = got.size(), count = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (any_nan_equal && std::isnan(got[i]) && std::isnan(want[i])) continue;
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i])) {
      if (count++ == 0) first = i;
    }
  }
  if (count > 0) {
    ADD_FAILURE() << what << ": " << count << " of " << got.size()
                  << " values differ, first at " << first << " (got "
                  << got[first] << ", want " << want[first] << ")";
  }
}

void expect_same_bits(std::span<const dsp::Complex> got,
                      std::span<const dsp::Complex> want,
                      const std::string& what) {
  expect_same_bits(
      std::span<const double>(reinterpret_cast<const double*>(got.data()),
                              2 * got.size()),
      std::span<const double>(reinterpret_cast<const double*>(want.data()),
                              2 * want.size()),
      what);
}

// Random samples in [-1, 1) with about one in sixteen replaced by -0.0, so
// a zero pad that came out as -0.0 (or a dropped sign) shows in the bits.
std::vector<double> signed_zero_vector(Rng& rng, std::size_t n) {
  auto out = random_vector(rng, n, -1.0, 1.0);
  for (double& v : out) {
    if (rng.bernoulli(1.0 / 16.0)) v = -0.0;
  }
  return out;
}

// Random samples in [-1, 1) with each one replaced, with probability p, by
// a special value: NaN, +inf, -inf, +0.0, -0.0 or a subnormal.
std::vector<double> special_vector(Rng& rng, std::size_t n, double p) {
  constexpr double kSpecials[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -3.0 * std::numeric_limits<double>::denorm_min(),
      0.5 * std::numeric_limits<double>::min()};
  auto out = random_vector(rng, n, -1.0, 1.0);
  for (double& v : out) {
    if (rng.bernoulli(p)) v = kSpecials[rng.uniform_int(0, 7)];
  }
  return out;
}

TEST(FuzzDifferential, FftPlanBitIdenticalToSwapPassReference) {
  const auto levels = dsp::simd::available_levels();
  const dsp::simd::Level entry_level = dsp::simd::active_level();
  const std::size_t iters = testing::fuzz_iterations();
  const std::uint64_t base = testing::fuzz_base_seed();
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);
    // A power of two from 1 to 65536 (plans exist for no other size).
    const std::size_t m = std::size_t{1} << rng.uniform_int(0, 16);
    SCOPED_TRACE("m = " + std::to_string(m));

    // rfft of a zero-padded input at every boundary length up to m.
    const auto half = static_cast<std::int64_t>(m / 2);
    const auto mi = static_cast<std::int64_t>(m);
    std::vector<std::vector<double>> rfft_in;
    for (std::int64_t len :
         {std::int64_t{0}, std::int64_t{1}, std::int64_t{2}, std::int64_t{3},
          half - 1, half, half + 1, mi - 1, mi}) {
      if (len < 0 || len > mi) continue;
      rfft_in.push_back(
          signed_zero_vector(rng, static_cast<std::size_t>(len)));
    }
    std::vector<std::vector<dsp::Complex>> rfft_ref;
    for (const auto& in : rfft_in) {
      rfft_ref.push_back(testing::reference_rfft(in, m));
    }

    // irfft, whole and prefix outputs.
    std::vector<dsp::Complex> spec(m / 2 + 1);
    for (auto& v : spec) {
      v = dsp::Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    }
    const std::size_t prefix = static_cast<std::size_t>(rng.uniform_int(0, mi));
    const auto irfft_ref = testing::reference_irfft(spec, m, m);
    const auto irfft_prefix_ref = testing::reference_irfft(spec, m, prefix);

    const auto sig = signed_zero_vector(rng, m);
    const auto window = random_vector(rng, m, 0.0, 1.0);
    const auto power_ref = testing::reference_power(sig);
    const auto wpower_ref = testing::reference_windowed_power(sig, window);

    for (dsp::simd::Level level : levels) {
      SCOPED_TRACE(dsp::simd::level_name(level));
      ASSERT_TRUE(dsp::simd::set_level(level));
      const dsp::FftPlan& plan = dsp::get_plan(m);

      std::vector<dsp::Complex> bins(m / 2 + 1);
      for (std::size_t i = 0; i < rfft_in.size(); ++i) {
        plan.rfft(rfft_in[i], bins);
        expect_same_bits(bins, rfft_ref[i],
                         "rfft len " + std::to_string(rfft_in[i].size()));
      }

      std::vector<double> samples(m);
      plan.irfft(spec, samples);
      expect_same_bits(samples, irfft_ref, "irfft");
      std::vector<double> head(prefix);
      plan.irfft(spec, head);
      expect_same_bits(head, irfft_prefix_ref,
                       "irfft prefix " + std::to_string(prefix));

      std::vector<double> out(m / 2 + 1);
      plan.power(sig, out);
      expect_same_bits(out, power_ref, "power");
      plan.windowed_power(sig.data(), window.data(), out);
      expect_same_bits(out, wpower_ref, "windowed_power");
    }
    dsp::simd::set_level(entry_level);
  }
  dsp::simd::set_level(entry_level);
}

TEST(FuzzDifferential, GainCurveMatchesNaiveZeroPhaseFilter) {
  const std::size_t iters = testing::fuzz_iterations();
  const std::uint64_t base = testing::fuzz_base_seed();
  // 1, 2, 3 and every 2^k - 1, 2^k, 2^k + 1 up to a 512-point grid.
  std::vector<std::size_t> sizes = {1, 2, 3};
  for (std::size_t p = 4; p <= 256; p *= 2) {
    sizes.insert(sizes.end(), {p - 1, p, p + 1});
  }
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);
    const std::size_t n = sizes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(sizes.size()) - 1))];
    SCOPED_TRACE("n = " + std::to_string(n));
    const double fs = rng.uniform(100.0, 16000.0);
    const Signal in(rng.gaussian_vector(n), fs);
    // A smooth random curve with a nonzero DC gain.
    const double g0 = rng.uniform(0.1, 2.0);
    const double g1 = rng.uniform(-0.09, 0.09);
    const double w = rng.uniform(1.0, 20.0) / fs;
    const auto gain = [=](double f) { return g0 + g1 * std::cos(w * f); };

    const Signal got = dsp::apply_gain_curve(in, gain);
    const Signal want = testing::naive_gain_filter(in, gain);
    ASSERT_EQ(got.size(), n);
    EXPECT_EQ(got.sample_rate(), fs);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(got[i], want[i], 1e-10) << "sample " << i;
    }
    if (n == 1) {
      EXPECT_EQ(got[0], gain(0.0) * in[0]);
    }

    // The table overload, fed the curve sampled on the same grid, is
    // bit-identical — in place, too.
    const std::size_t m = dsp::gain_fft_size(n);
    std::vector<double> table(m / 2 + 1);
    for (std::size_t k = 0; k < table.size(); ++k) {
      table[k] = gain(static_cast<double>(k) * fs / static_cast<double>(m));
    }
    Signal tabled = in;
    std::vector<dsp::Complex> work;
    dsp::apply_gain_curve(tabled, table, tabled, work);
    ASSERT_EQ(tabled.size(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(tabled[i], got[i]);
  }
}

TEST(FuzzDifferential, PlannedStftPowerMatchesNaive) {
  const std::size_t iters = testing::fuzz_iterations();
  const std::uint64_t base = testing::fuzz_base_seed();
  constexpr dsp::WindowType kWindows[] = {
      dsp::WindowType::kRectangular, dsp::WindowType::kHann,
      dsp::WindowType::kHamming, dsp::WindowType::kBlackman};
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);
    const std::size_t ws = std::size_t{1} << rng.uniform_int(2, 6);
    const auto hop = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(ws)));
    // Includes empty and shorter-than-one-window inputs (padded path).
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 400));
    const double rate = rng.uniform(50.0, 16000.0);
    const auto window = kWindows[rng.uniform_int(0, 3)];
    const Signal sig(random_vector(rng, len, -1.0, 1.0), rate);

    dsp::Spectrogram out;
    dsp::stft_power_into(sig, ws, hop, out, window);
    const auto ref = testing::naive_stft_power(sig, ws, hop, window);

    ASSERT_EQ(out.frames(), ref.size());
    ASSERT_EQ(out.bins(), ws / 2 + 1);
    EXPECT_NEAR(out.bin_hz(), rate / static_cast<double>(ws), 1e-9);
    EXPECT_NEAR(out.hop_seconds(), static_cast<double>(hop) / rate, 1e-12);
    for (std::size_t f = 0; f < out.frames(); ++f) {
      for (std::size_t b = 0; b < out.bins(); ++b) {
        EXPECT_NEAR(out.at(f, b), ref[f][b], 1e-9)
            << "frame " << f << " bin " << b;
      }
    }
  }
}

// stft_power_into runs power-of-two windows four frames at a time (one
// frame per AVX2 lane); every row must equal FftPlan::windowed_power of its
// frame bit for bit, at every level, special values included.
TEST(FuzzDifferential, StftLanesMatchPerFrameWindowedPower) {
  const auto levels = dsp::simd::available_levels();
  const dsp::simd::Level entry_level = dsp::simd::active_level();
  const std::size_t iters = testing::fuzz_iterations();
  const std::uint64_t base = testing::fuzz_base_seed();
  constexpr dsp::WindowType kWindows[] = {
      dsp::WindowType::kRectangular, dsp::WindowType::kHann,
      dsp::WindowType::kHamming, dsp::WindowType::kBlackman};
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);
    // Powers of two from 8 to 2048 (the lane path); one in four from 2,
    // which includes the sizes below 8 that run frame by frame.
    const std::size_t ws =
        std::size_t{1} << rng.uniform_int(it % 4 == 3 ? 1 : 3, 11);
    const std::size_t hops[] = {1, 3, 16, 128, ws, ws + 1};
    const std::size_t hop = hops[rng.uniform_int(0, 5)];
    // 0-9 frames, or 4k + {0..3} for k up to 12.
    const std::size_t frames =
        rng.bernoulli(0.5)
            ? static_cast<std::size_t>(rng.uniform_int(0, 9))
            : static_cast<std::size_t>(4 * rng.uniform_int(3, 12) +
                                       rng.uniform_int(0, 3));
    const auto type = kWindows[rng.uniform_int(0, 3)];
    const std::size_t len = frames == 0 ? 0 : ws + (frames - 1) * hop;
    // Half the trials clean, the rest with special values sprinkled in.
    const double p = it % 2 == 0 ? 0.0 : rng.uniform(0.0005, 0.02);
    const Signal sig(special_vector(rng, len, p), 16000.0);
    SCOPED_TRACE("window " + std::to_string(ws) + " hop " +
                 std::to_string(hop) + " frames " + std::to_string(frames));

    for (dsp::simd::Level level : levels) {
      SCOPED_TRACE(dsp::simd::level_name(level));
      ASSERT_TRUE(dsp::simd::set_level(level));
      dsp::Spectrogram got;
      dsp::stft_power_into(sig, ws, hop, got, type);
      ASSERT_EQ(got.frames(), frames);
      const std::size_t bins = ws / 2 + 1;
      std::vector<double> want(frames * bins);
      const dsp::FftPlan& plan = dsp::get_plan(ws);
      const auto& win = dsp::cached_window(type, ws);
      for (std::size_t f = 0; f < frames; ++f) {
        plan.windowed_power(sig.samples().data() + f * hop, win.data(),
                            std::span<double>(want.data() + f * bins, bins));
      }
      expect_same_bits(got.values(), want, "stft rows",
                       /*any_nan_equal=*/true);
    }
    dsp::simd::set_level(entry_level);
  }
  dsp::simd::set_level(entry_level);
}

void expect_same_quality(const core::ChannelQuality& got,
                         const core::ChannelQuality& want,
                         const std::string& what) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(got.samples, want.samples) << what;
  EXPECT_EQ(bits(got.duration_s), bits(want.duration_s)) << what;
  EXPECT_EQ(bits(got.rms), bits(want.rms)) << what;
  EXPECT_EQ(bits(got.peak), bits(want.peak)) << what;
  EXPECT_EQ(bits(got.dc_offset), bits(want.dc_offset)) << what;
  EXPECT_EQ(bits(got.clip_ratio), bits(want.clip_ratio)) << what;
  EXPECT_EQ(bits(got.gap_ratio), bits(want.gap_ratio)) << what;
  EXPECT_EQ(bits(got.longest_gap_s), bits(want.longest_gap_s)) << what;
  EXPECT_EQ(bits(got.stuck_ratio), bits(want.stuck_ratio)) << what;
  EXPECT_EQ(got.non_finite, want.non_finite) << what;
  EXPECT_EQ(got.issues, want.issues) << what;
}

// The census's block scan against the frozen per-sample walk: zero runs
// one shorter than, as long as and one longer than a gap, runs of equal
// samples, non-finite, tiny and subnormal samples planted at every lane
// offset, fed whole and in chunks of 1 to 9 samples, at every level.
TEST(FuzzDifferential, QualityCensusMatchesScalarReference) {
  const auto levels = dsp::simd::available_levels();
  const dsp::simd::Level entry_level = dsp::simd::active_level();
  const std::size_t iters = testing::fuzz_iterations();
  const std::uint64_t base = testing::fuzz_base_seed();
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);
    core::QualityConfig cfg;
    const double rate = 1000.0;
    cfg.min_gap_s = static_cast<double>(rng.uniform_int(1, 12)) / rate;
    cfg.max_gap_ratio = rng.uniform(0.0, 0.3);
    cfg.max_stuck_ratio = rng.uniform(0.0, 0.1);
    cfg.max_clip_ratio = rng.uniform(0.0, 0.05);
    const std::size_t min_gap = core::min_gap_samples(cfg, rate);
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 700));
    std::vector<double> x = random_vector(rng, n, -1.0, 1.0);
    // Plant `count` copies of `value` at a block of four's lane `lane`.
    const auto plant = [&](std::size_t count, double value, std::size_t lane) {
      if (n < count + 4) return;
      auto at = static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>((n - count - 4) / 4))) *
                    4 +
                lane;
      for (std::size_t k = 0; k < count; ++k) x[at + k] = value;
    };
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const double specials[] = {nan, inf, -inf, 0.0, -0.0, 5e-10, -1e-9,
                               std::numeric_limits<double>::denorm_min()};
    const auto events = static_cast<std::size_t>(rng.uniform_int(0, 12));
    for (std::size_t e = 0; e < events; ++e) {
      const std::size_t lane = (it + e) % 4;
      switch (rng.uniform_int(0, 3)) {
        case 0:  // a zero run around the gap length
          plant(min_gap - 1 + static_cast<std::size_t>(rng.uniform_int(0, 2)),
                rng.bernoulli(0.5) ? 0.0 : -2e-10, lane);
          break;
        case 1:  // a run of equal samples (a stuck sensor)
          plant(static_cast<std::size_t>(rng.uniform_int(2, 9)),
                rng.uniform(-1.0, 1.0), lane);
          break;
        case 2:  // one special sample
          plant(1, specials[rng.uniform_int(0, 7)], lane);
          break;
        default:  // a sample at the rail (clipping census)
          plant(1, rng.bernoulli(0.5) ? 1.0 : -1.0, lane);
          break;
      }
    }
    const Signal sig(x, rate);
    const core::ChannelQuality want =
        testing::reference_assess_channel(sig, cfg);
    core::StreamingCensus want_state;
    testing::reference_census_update(want_state, x, min_gap);

    for (dsp::simd::Level level : levels) {
      SCOPED_TRACE(dsp::simd::level_name(level));
      ASSERT_TRUE(dsp::simd::set_level(level));
      expect_same_quality(core::assess_channel(sig, cfg), want, "whole");
      for (std::size_t chunk = 1; chunk <= 9; ++chunk) {
        const std::string what = "chunk " + std::to_string(chunk);
        core::StreamingCensus census;
        for (std::size_t off = 0; off < n; off += chunk) {
          census.update(std::span<const double>(x).subspan(
                            off, std::min(chunk, n - off)),
                        min_gap);
        }
        expect_same_quality(census.finalize(sig, cfg), want, what);
        const auto bits = [](double v) {
          return std::bit_cast<std::uint64_t>(v);
        };
        EXPECT_EQ(bits(census.sum), bits(want_state.sum)) << what;
        EXPECT_EQ(bits(census.sum_sq), bits(want_state.sum_sq)) << what;
        EXPECT_EQ(bits(census.peak), bits(want_state.peak)) << what;
        EXPECT_EQ(census.finite_count, want_state.finite_count) << what;
        EXPECT_EQ(census.total, want_state.total) << what;
        EXPECT_EQ(census.zero_run, want_state.zero_run) << what;
        EXPECT_EQ(census.gap_samples, want_state.gap_samples) << what;
        EXPECT_EQ(census.longest_gap, want_state.longest_gap) << what;
        EXPECT_EQ(census.const_run, want_state.const_run) << what;
        EXPECT_EQ(census.longest_const, want_state.longest_const) << what;
        EXPECT_EQ(census.have_prev, want_state.have_prev) << what;
      }
    }
    dsp::simd::set_level(entry_level);
  }
  dsp::simd::set_level(entry_level);
}

TEST(FuzzDifferential, Correlation2dMatchesScalarPearson) {
  const std::size_t iters = testing::fuzz_iterations();
  const std::uint64_t base = testing::fuzz_base_seed();
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);
    const auto bins = static_cast<std::size_t>(rng.uniform_int(1, 24));
    const auto fa = static_cast<std::size_t>(rng.uniform_int(1, 40));
    const auto fb = static_cast<std::size_t>(rng.uniform_int(1, 40));
    dsp::Spectrogram a(fa, bins, 1.0, 0.01);
    dsp::Spectrogram b(fb, bins, 1.0, 0.01);
    for (double& v : a.values()) v = rng.gaussian(0.5, 1.0);
    for (double& v : b.values()) v = rng.gaussian(-0.25, 2.0);

    const std::size_t n = std::min(fa, fb) * bins;
    const double ref = testing::naive_pearson(
        std::span<const double>(a.values().data(), n),
        std::span<const double>(b.values().data(), n));
    EXPECT_NEAR(dsp::correlation_2d(a, b), ref, 1e-9);
  }
}

TEST(FuzzDifferential, CrossCorrelateMatchesDirectReference) {
  const std::size_t iters = testing::fuzz_iterations();
  const std::uint64_t base = testing::fuzz_base_seed();
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);

    // Small problem: exercises the library's direct evaluation path.
    {
      const auto la = static_cast<std::size_t>(rng.uniform_int(0, 120));
      const auto lb = static_cast<std::size_t>(rng.uniform_int(0, 120));
      const auto lag = static_cast<std::size_t>(rng.uniform_int(0, 40));
      const auto a = rng.gaussian_vector(la);
      const auto b = rng.gaussian_vector(lb);
      const auto got = dsp::cross_correlate(a, b, lag);
      const auto ref = testing::naive_cross_correlate(a, b, lag);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got[i], ref[i], 1e-9) << "lag index " << i;
      }
    }

    // Large problem: min(len) * (2*max_lag + 1) >= 2^18 forces the
    // FFT-based path (see correlate.cpp's crossover).
    {
      const auto len = static_cast<std::size_t>(rng.uniform_int(640, 760));
      const auto lag = static_cast<std::size_t>(rng.uniform_int(220, 240));
      const auto a = rng.gaussian_vector(len);
      const auto b = rng.gaussian_vector(len);
      const auto got = dsp::cross_correlate(a, b, lag);
      const auto ref = testing::naive_cross_correlate(a, b, lag);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got[i], ref[i], 1e-6) << "lag index " << i;
      }
    }
  }
}

TEST(FuzzDifferential, CrossCorrelateFftPathAtPaddingBoundaries) {
  // The FFT path pads to m = next_pow2(max(na, nb) + max_lag), the smallest
  // power of two with no circular wrap inside the lag window. Put
  // max(na, nb) + max_lag exactly on a power of two and one either side,
  // with balanced and very unequal lengths and with max_lag >= na, and hold
  // every lag and the estimated delay to the direct reference.
  const std::size_t iters = testing::fuzz_iterations();
  const std::uint64_t base = testing::fuzz_base_seed();
  enum Shape { kBalanced, kShortA, kShortB, kLagPastA, kShapes };
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);
    const auto shape = static_cast<Shape>(it % kShapes);
    const auto pow2 = std::size_t{1} << rng.uniform_int(11, 12);
    const auto target =
        static_cast<std::size_t>(static_cast<std::int64_t>(pow2) +
                                 rng.uniform_int(-1, 1));
    std::size_t na = 0, nb = 0, lag = 0;
    switch (shape) {
      case kBalanced:
        lag = static_cast<std::size_t>(rng.uniform_int(200, 400));
        na = target - lag;
        nb = na - static_cast<std::size_t>(rng.uniform_int(0, 50));
        if (it % 8 < 4) std::swap(na, nb);
        break;
      case kShortA:
        na = static_cast<std::size_t>(rng.uniform_int(300, 400));
        lag = static_cast<std::size_t>(rng.uniform_int(450, 600));
        nb = target - lag;
        break;
      case kShortB:
        nb = static_cast<std::size_t>(rng.uniform_int(300, 400));
        lag = static_cast<std::size_t>(rng.uniform_int(450, 600));
        na = target - lag;
        break;
      default:  // kLagPastA: the window reaches beyond a's whole length.
        na = static_cast<std::size_t>(rng.uniform_int(370, 450));
        lag = na + static_cast<std::size_t>(rng.uniform_int(0, 200));
        nb = target - lag;
        break;
    }
    SCOPED_TRACE("na = " + std::to_string(na) + " nb = " +
                 std::to_string(nb) + " max_lag = " + std::to_string(lag));
    // Stay on the FFT path (see correlate.cpp's crossover).
    ASSERT_GE(std::min(na, nb) * (2 * lag + 1), std::size_t{1} << 18);
    ASSERT_EQ(std::max(na, nb) + lag, target);

    // b carries a copy of a at a planted delay plus noise, so the peak is
    // a real one rather than the best of random products.
    const auto a = rng.gaussian_vector(na);
    auto b = rng.gaussian_vector(nb, 0.5);
    const auto planted = rng.uniform_int(-static_cast<std::int64_t>(lag),
                                         static_cast<std::int64_t>(lag));
    for (std::size_t n = 0; n < na; ++n) {
      const std::int64_t m = static_cast<std::int64_t>(n) + planted;
      if (m >= 0 && m < static_cast<std::int64_t>(nb)) {
        b[static_cast<std::size_t>(m)] += a[n];
      }
    }

    const auto got = dsp::cross_correlate(a, b, lag);
    const auto ref = testing::naive_cross_correlate(a, b, lag);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i], ref[i], 1e-9 * (1.0 + std::abs(ref[i])))
          << "lag index " << i;
    }
    const auto ref_best =
        std::max_element(ref.begin(), ref.end()) - ref.begin();
    EXPECT_EQ(dsp::estimate_delay(a, b, lag),
              ref_best - static_cast<std::ptrdiff_t>(lag));
  }
}

TEST(FuzzDifferential, DecimateAliasMatchesNaiveLinearResampler) {
  const std::size_t iters = testing::fuzz_iterations();
  const std::uint64_t base = testing::fuzz_base_seed();
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);
    const double in_rate = rng.uniform(100.0, 16000.0);
    const double target = rng.uniform(0.05 * in_rate, in_rate);
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 600));
    const Signal sig(rng.gaussian_vector(len), in_rate);

    const Signal got = dsp::decimate_alias(sig, target);
    const Signal ref = testing::naive_linear_resample(sig, target);
    ASSERT_EQ(got.size(), ref.size());
    EXPECT_DOUBLE_EQ(got.sample_rate(), target);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i], ref[i], 1e-12) << "sample " << i;
    }

    // The _into overload must agree bit-for-bit, including when the output
    // aliases the input (the PR 3 aliasing regression).
    Signal out;
    dsp::decimate_alias_into(sig, target, out);
    ASSERT_EQ(out.size(), got.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_DOUBLE_EQ(out[i], got[i]) << "sample " << i;
    }
    Signal self = sig;
    dsp::decimate_alias_into(self, target, self);
    ASSERT_EQ(self.size(), got.size());
    EXPECT_DOUBLE_EQ(self.sample_rate(), target);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_DOUBLE_EQ(self[i], got[i]) << "sample " << i;
    }
  }
}

TEST(FuzzDifferential, GainsAndDecimateMatchesNaiveFilterAndSampler) {
  const std::size_t iters = testing::fuzz_iterations();
  const std::uint64_t base = testing::fuzz_base_seed();
  // Input rates against the accelerometer's 200 Hz: R = 80, 240, 480 fold
  // (F = 16, 16, 32); R = 75 and 220.5 take the unfolded path (F = 1).
  const double rates[] = {16000.0, 48000.0, 96000.0, 15000.0, 44100.0};
  constexpr double kTarget = 200.0;
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);
    const double fs = rates[rng.uniform_int(0, 4)];
    const double ratio = fs / kTarget;
    const auto r = static_cast<std::size_t>(ratio);
    const std::size_t p = std::size_t{1} << rng.uniform_int(6, 15);
    const std::size_t sizes[] = {1, r - 1, r, r + 1, p - 1, p, p + 1};
    const std::size_t n = sizes[rng.uniform_int(0, 6)];
    SCOPED_TRACE("fs = " + std::to_string(fs) + ", n = " + std::to_string(n));
    const Signal in(rng.gaussian_vector(n), fs);
    // A coupling-like high-pass knee at a random corner.
    const double knee = rng.uniform(200.0, 2000.0);
    const auto gain = [knee](double f) {
      return 0.05 + 0.95 / (1.0 + std::pow(knee / std::max(f, 1e-3), 6.0));
    };
    const std::size_t m = dsp::gain_fft_size(n);
    std::vector<double> table(m / 2 + 1);
    for (std::size_t k = 0; k < table.size(); ++k) {
      table[k] = gain(dsp::bin_frequency(k, m, fs));
    }

    // The two-step path: whole filtered signal, then point sampling.
    std::vector<dsp::Complex> spectrum;
    dsp::gain_curve_spectrum(in, spectrum);
    Signal filtered, two_step;
    dsp::apply_gains_to_spectrum(spectrum, table, n, fs, filtered);
    dsp::decimate_alias_into(filtered, kTarget, two_step);

    dsp::gain_curve_spectrum(in, spectrum);
    Signal got(std::vector<double>(5, 9.0), 1.0), work;
    dsp::apply_gains_and_decimate(spectrum, table, n, fs, kTarget, got, work);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(
                              std::floor(static_cast<double>(n) / ratio)));
    EXPECT_EQ(got.sample_rate(), kTarget);
    ASSERT_EQ(got.size(), two_step.size());
    const bool folds = ratio == std::floor(ratio) && r % 2 == 0 && m >= 4;
    double scale = 0.0;
    for (double v : filtered) scale = std::max(scale, std::abs(v));
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (folds) {
        EXPECT_NEAR(got[i], two_step[i], 1e-12 * (1.0 + scale)) << i;
      } else {
        EXPECT_EQ(got[i], two_step[i]) << "sample " << i;  // F = 1: same path
      }
    }
    // The naive O(m^2) references, on grids small enough to afford them.
    if (m <= 1024) {
      const Signal want = testing::naive_linear_resample(
          testing::naive_gain_filter(in, gain), kTarget);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got[i], want[i], 1e-10) << "sample " << i;
      }
    }
  }
}

TEST(FuzzDifferential, ResampleMatchesNaiveReference) {
  const std::size_t iters = testing::fuzz_iterations();
  const std::uint64_t base = testing::fuzz_base_seed();
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);
    const double in_rate = rng.uniform(200.0, 16000.0);
    const bool down = rng.bernoulli(0.5);
    const double target = down ? rng.uniform(0.1 * in_rate, 0.95 * in_rate)
                               : rng.uniform(1.05 * in_rate, 4.0 * in_rate);
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 500));
    const Signal sig(rng.gaussian_vector(len), in_rate);

    const Signal got = dsp::resample(sig, target);
    const Signal ref = testing::naive_resample(sig, target);
    ASSERT_EQ(got.size(), ref.size());
    EXPECT_DOUBLE_EQ(got.sample_rate(), ref.sample_rate());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i], ref[i], 1e-9) << "sample " << i;
    }
  }
}

TEST(FuzzDifferential, ComputeRocMatchesBruteForce) {
  const std::size_t iters = testing::fuzz_iterations();
  const std::uint64_t base = testing::fuzz_base_seed();
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);
    const auto na = static_cast<std::size_t>(rng.uniform_int(1, 50));
    const auto nl = static_cast<std::size_t>(rng.uniform_int(1, 50));
    // Quantized scores so duplicate values and exact rate ties are common.
    std::vector<double> attacks(na), legits(nl);
    for (double& v : attacks) {
      v = std::round(rng.uniform(0.0, 1.0) * 8.0) / 8.0;
    }
    for (double& v : legits) {
      v = std::round(rng.uniform(0.2, 1.2) * 8.0) / 8.0;
    }

    const auto roc = eval::compute_roc(attacks, legits);
    const auto ref = testing::naive_roc(attacks, legits);

    ASSERT_EQ(roc.points.size(), ref.thresholds.size());
    for (std::size_t i = 0; i < roc.points.size(); ++i) {
      EXPECT_DOUBLE_EQ(roc.points[i].threshold, ref.thresholds[i]);
      EXPECT_DOUBLE_EQ(roc.points[i].fdr, ref.fdr[i]) << "point " << i;
      EXPECT_DOUBLE_EQ(roc.points[i].tdr, ref.tdr[i]) << "point " << i;
    }
    EXPECT_NEAR(roc.auc, ref.auc, 1e-12);
    EXPECT_NEAR(roc.eer, ref.eer, 1e-12);
    EXPECT_NEAR(roc.eer_threshold, ref.eer_threshold, 1e-9);
  }
}

// Re-runs the DSP pipelines at every dispatch level this build + CPU
// provides and holds them to the documented numerical contract versus the
// scalar reference: pipelines built purely from elementwise kernels (real
// FFTs, planned STFT power, decimate_alias, the real-FFT gain filter)
// must agree bit-for-bit;
// pipelines through the reduction kernels (FIR resample, correlation_2d,
// MFCC) to ULP-scaled tolerance.
TEST(FuzzDifferential, DispatchLevelsMatchScalarReference) {
  const auto levels = dsp::simd::available_levels();
  const dsp::simd::Level entry_level = dsp::simd::active_level();
  if (levels.size() < 2) {
    GTEST_SKIP() << "only the scalar dispatch level is available";
  }
  const std::size_t iters = testing::fuzz_iterations();
  const std::uint64_t base = testing::fuzz_base_seed();
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);

    // Shared random inputs for all levels of this trial.
    const std::size_t fft_n = std::size_t{1} << rng.uniform_int(1, 7);
    const auto fft_in = random_vector(rng, fft_n, -1.0, 1.0);
    const std::size_t ws = std::size_t{1} << rng.uniform_int(2, 6);
    const auto hop = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(ws)));
    const Signal stft_sig(
        rng.gaussian_vector(static_cast<std::size_t>(rng.uniform_int(0, 400))),
        rng.uniform(50.0, 16000.0));
    const double deci_rate = rng.uniform(100.0, 16000.0);
    const double deci_target = rng.uniform(0.05 * deci_rate, deci_rate);
    const Signal deci_sig(
        rng.gaussian_vector(static_cast<std::size_t>(rng.uniform_int(0, 600))),
        deci_rate);
    const double rs_rate = rng.uniform(400.0, 16000.0);
    const double rs_target = rng.uniform(0.1 * rs_rate, 0.95 * rs_rate);
    const Signal rs_sig(
        rng.gaussian_vector(static_cast<std::size_t>(rng.uniform_int(0, 500))),
        rs_rate);
    const auto corr_bins = static_cast<std::size_t>(rng.uniform_int(1, 24));
    dsp::Spectrogram corr_a(static_cast<std::size_t>(rng.uniform_int(1, 40)),
                            corr_bins, 1.0, 0.01);
    dsp::Spectrogram corr_b(static_cast<std::size_t>(rng.uniform_int(1, 40)),
                            corr_bins, 1.0, 0.01);
    for (double& v : corr_a.values()) v = rng.gaussian(0.5, 1.0);
    for (double& v : corr_b.values()) v = rng.gaussian(-0.25, 2.0);
    const Signal mfcc_sig(
        rng.gaussian_vector(
            static_cast<std::size_t>(rng.uniform_int(400, 1600))),
        16000.0);
    const Signal gain_sig(
        rng.gaussian_vector(static_cast<std::size_t>(rng.uniform_int(1, 700))),
        rng.uniform(400.0, 16000.0));
    const auto gain = [](double f) { return 1.0 / (1.0 + f / 300.0); };
    std::vector<double> clip_in =
        rng.gaussian_vector(static_cast<std::size_t>(rng.uniform_int(0, 300)));
    const double clip_drive = rng.uniform(1.0, 1.5);
    const double clip_peak = rng.uniform(0.1, 4.0);
    const double clip_scale = clip_peak / std::tanh(clip_drive);
    // The FFT's gathering first pass on its own: any power of two up to
    // 4096, a source anywhere from empty to whole (odd lengths half-fill
    // their last pair).
    const std::size_t gather_n = std::size_t{1} << rng.uniform_int(0, 12);
    const auto gather_src = random_vector(
        rng,
        static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(2 * gather_n))),
        -1.0, 1.0);
    const bool gather_inverse = rng.bernoulli(0.5);
    std::vector<std::uint32_t> rev4(gather_n / 4, 0);
    for (std::size_t q = 1; q < rev4.size(); ++q) {
      rev4[q] = (rev4[q >> 1] >> 1) |
                ((q & 1) != 0 ? static_cast<std::uint32_t>(gather_n / 8) : 0);
    }
    // The four-frame STFT kernel on its own, any power of two from 8 to
    // 1024 and any hop, reading the plan's own tables (which are the same
    // at every level).
    const std::size_t frame_n = std::size_t{1} << rng.uniform_int(3, 10);
    const auto frame_hop = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(frame_n) + 1));
    const auto frame_in =
        random_vector(rng, frame_n + 3 * frame_hop, -1.0, 1.0);
    const auto frame_win = random_vector(rng, frame_n, 0.0, 1.0);
    const std::size_t frame_h = frame_n / 2;
    std::vector<std::uint32_t> frame_rev4(frame_h / 4, 0);
    for (std::size_t q = 1; q < frame_rev4.size(); ++q) {
      frame_rev4[q] =
          (frame_rev4[q >> 1] >> 1) |
          ((q & 1) != 0 ? static_cast<std::uint32_t>(frame_h / 8) : 0);
    }
    const auto root = [](std::size_t j, std::size_t len) {
      return std::polar(1.0, -2.0 * std::numbers::pi *
                                 static_cast<double>(j) /
                                 static_cast<double>(len));
    };
    std::vector<dsp::Complex> frame_tw, frame_rtw;
    for (std::size_t len = 8; len <= frame_h; len <<= 1) {
      for (std::size_t j = 0; j < len / 2; ++j) {
        frame_tw.push_back(root(j, len));
      }
    }
    for (std::size_t k = 0; k <= frame_h; ++k) {
      frame_rtw.push_back(root(k, frame_n));
    }
    const dsp::simd::FrameTables frame_tables{
        frame_n, frame_rev4.data(), frame_tw.data(), frame_rtw.data()};
    const double frame_norm2 = 1.0 / static_cast<double>(frame_n * frame_n);
    AlignedVector<double> frame_lanes(4 * frame_n);
    // Spectrogram max/divide and the census kernels on samples with
    // special values mixed in.
    const auto norm_in = special_vector(
        rng, static_cast<std::size_t>(rng.uniform_int(0, 300)), 0.05);
    const double norm_div = rng.uniform(0.01, 4.0);
    const auto census_in = special_vector(
        rng, static_cast<std::size_t>(rng.uniform_int(0, 300)),
        rng.uniform(0.0, 0.02));
    const double census_prev = rng.uniform(-1.0, 1.0);
    const double clip_level = rng.uniform(0.0, 1.0);

    // Scalar pass: the reference every other level is held to.
    ASSERT_TRUE(dsp::simd::set_level(dsp::simd::Level::kScalar));
    std::vector<dsp::Complex> gather_ref(gather_n);
    dsp::simd::ops().fft_gather_stage2_4(gather_ref.data(), gather_src.data(),
                                         gather_src.size(), rev4.data(),
                                         gather_n, gather_inverse);
    std::vector<dsp::Complex> fft_ref(fft_n / 2 + 1);
    dsp::get_plan(fft_n).rfft(fft_in, fft_ref);
    dsp::Spectrogram stft_ref;
    dsp::stft_power_into(stft_sig, ws, hop, stft_ref);
    const Signal deci_ref = dsp::decimate_alias(deci_sig, deci_target);
    const Signal rs_ref = dsp::resample(rs_sig, rs_target);
    const double corr_ref = dsp::correlation_2d(corr_a, corr_b);
    const auto mfcc_ref = dsp::compute_mfcc(mfcc_sig);
    const Signal gain_ref = dsp::apply_gain_curve(gain_sig, gain);
    std::vector<double> clip_ref = clip_in;
    dsp::simd::ops().soft_clip(clip_ref.data(), clip_ref.size(), clip_drive,
                               clip_peak, clip_scale);
    std::vector<double> frame_ref(4 * (frame_h + 1));
    dsp::simd::ops().windowed_power4(frame_in.data(), frame_hop,
                                     frame_win.data(), frame_tables,
                                     frame_norm2, frame_lanes.data(),
                                     frame_ref.data());
    const double max_ref =
        dsp::simd::ops().max_value(norm_in.data(), norm_in.size());
    std::vector<double> div_ref = norm_in;
    dsp::simd::ops().divide(div_ref.data(), div_ref.size(), norm_div);
    dsp::simd::CensusSums census_ref;
    const std::size_t census_ref_n = dsp::simd::ops().census_plain(
        census_in.data(), census_in.size(), census_prev, 1e-9, census_ref);
    const std::size_t clipped_ref = dsp::simd::ops().count_clipped(
        census_in.data(), census_in.size(), clip_level);

    for (dsp::simd::Level level : levels) {
      if (level == dsp::simd::Level::kScalar) continue;
      SCOPED_TRACE(dsp::simd::level_name(level));
      ASSERT_TRUE(dsp::simd::set_level(level));

      // Elementwise-kernel pipelines: bit-identical.
      std::vector<dsp::Complex> gather_got(gather_n);
      dsp::simd::ops().fft_gather_stage2_4(
          gather_got.data(), gather_src.data(), gather_src.size(),
          rev4.data(), gather_n, gather_inverse);
      expect_same_bits(gather_got, gather_ref,
                       "fft_gather_stage2_4 n " + std::to_string(gather_n) +
                           " len " + std::to_string(gather_src.size()));
      std::vector<dsp::Complex> fft_got(fft_n / 2 + 1);
      dsp::get_plan(fft_n).rfft(fft_in, fft_got);
      for (std::size_t i = 0; i < fft_got.size(); ++i) {
        EXPECT_EQ(fft_got[i].real(), fft_ref[i].real()) << "bin " << i;
        EXPECT_EQ(fft_got[i].imag(), fft_ref[i].imag()) << "bin " << i;
      }
      dsp::Spectrogram stft_got;
      dsp::stft_power_into(stft_sig, ws, hop, stft_got);
      ASSERT_EQ(stft_got.frames(), stft_ref.frames());
      for (std::size_t f = 0; f < stft_got.frames(); ++f) {
        for (std::size_t b = 0; b < stft_got.bins(); ++b) {
          EXPECT_EQ(stft_got.at(f, b), stft_ref.at(f, b))
              << "frame " << f << " bin " << b;
        }
      }
      const Signal deci_got = dsp::decimate_alias(deci_sig, deci_target);
      ASSERT_EQ(deci_got.size(), deci_ref.size());
      for (std::size_t i = 0; i < deci_got.size(); ++i) {
        EXPECT_EQ(deci_got[i], deci_ref[i]) << "sample " << i;
      }
      // Real-FFT gain filter (rfft, scale, irfft): bit-identical.
      const Signal gain_got = dsp::apply_gain_curve(gain_sig, gain);
      ASSERT_EQ(gain_got.size(), gain_ref.size());
      for (std::size_t i = 0; i < gain_got.size(); ++i) {
        EXPECT_EQ(gain_got[i], gain_ref[i]) << "sample " << i;
      }
      std::vector<double> clip_got = clip_in;
      dsp::simd::ops().soft_clip(clip_got.data(), clip_got.size(), clip_drive,
                                 clip_peak, clip_scale);
      for (std::size_t i = 0; i < clip_got.size(); ++i) {
        EXPECT_EQ(clip_got[i], clip_ref[i]) << "soft clip sample " << i;
      }
      std::vector<double> frame_got(frame_ref.size());
      dsp::simd::ops().windowed_power4(frame_in.data(), frame_hop,
                                       frame_win.data(), frame_tables,
                                       frame_norm2, frame_lanes.data(),
                                       frame_got.data());
      expect_same_bits(frame_got, frame_ref,
                       "windowed_power4 n " + std::to_string(frame_n) +
                           " hop " + std::to_string(frame_hop));
      // Order-free reductions: bit-identical too.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(dsp::simd::ops().max_value(
                    norm_in.data(), norm_in.size())),
                std::bit_cast<std::uint64_t>(max_ref));
      std::vector<double> div_got = norm_in;
      dsp::simd::ops().divide(div_got.data(), div_got.size(), norm_div);
      expect_same_bits(div_got, div_ref, "divide", /*any_nan_equal=*/true);
      dsp::simd::CensusSums census_got;
      EXPECT_EQ(dsp::simd::ops().census_plain(census_in.data(),
                                              census_in.size(), census_prev,
                                              1e-9, census_got),
                census_ref_n);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(census_got.sum),
                std::bit_cast<std::uint64_t>(census_ref.sum));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(census_got.sum_sq),
                std::bit_cast<std::uint64_t>(census_ref.sum_sq));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(census_got.peak),
                std::bit_cast<std::uint64_t>(census_ref.peak));
      EXPECT_EQ(dsp::simd::ops().count_clipped(census_in.data(),
                                               census_in.size(), clip_level),
                clipped_ref);

      // Reduction-kernel pipelines: ULP-scaled tolerance.
      const Signal rs_got = dsp::resample(rs_sig, rs_target);
      ASSERT_EQ(rs_got.size(), rs_ref.size());
      for (std::size_t i = 0; i < rs_got.size(); ++i) {
        EXPECT_NEAR(rs_got[i], rs_ref[i],
                    1e-12 * (1.0 + std::abs(rs_ref[i])))
            << "sample " << i;
      }
      EXPECT_NEAR(dsp::correlation_2d(corr_a, corr_b), corr_ref, 1e-12);
      const auto mfcc_got = dsp::compute_mfcc(mfcc_sig);
      ASSERT_EQ(mfcc_got.size(), mfcc_ref.size());
      for (std::size_t f = 0; f < mfcc_got.size(); ++f) {
        ASSERT_EQ(mfcc_got[f].size(), mfcc_ref[f].size());
        for (std::size_t k = 0; k < mfcc_got[f].size(); ++k) {
          // log() of near-zero mel energies amplifies reassociation noise,
          // so the bound is looser than the raw kernel tolerance.
          EXPECT_NEAR(mfcc_got[f][k], mfcc_ref[f][k],
                      1e-6 * (1.0 + std::abs(mfcc_ref[f][k])))
              << "frame " << f << " coeff " << k;
        }
      }
    }
    dsp::simd::set_level(entry_level);
  }
  dsp::simd::set_level(entry_level);
}

TEST(FuzzDifferential, WavRoundTripWithinQuantization) {
  const std::size_t iters = testing::fuzz_iterations();
  const std::uint64_t base = testing::fuzz_base_seed();
  const std::string path =
      (std::filesystem::temp_directory_path() / "vibguard_fuzz_roundtrip.wav")
          .string();
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 400));
    const double rate = static_cast<double>(rng.uniform_int(100, 48000));
    // Beyond [-1, 1] on purpose: clipping is part of the contract.
    const Signal sig(random_vector(rng, len, -1.3, 1.3), rate);

    write_wav(path, sig);
    const Signal loaded = read_wav(path);
    ASSERT_EQ(loaded.size(), sig.size());
    EXPECT_DOUBLE_EQ(loaded.sample_rate(), rate);
    for (std::size_t i = 0; i < sig.size(); ++i) {
      const double clipped = std::clamp(sig[i], -1.0, 1.0);
      const double quantized =
          static_cast<double>(std::lround(clipped * 32767.0)) / 32767.0;
      // Exactly the documented quantization, i.e. within half an LSB of the
      // clipped input.
      EXPECT_DOUBLE_EQ(loaded[i], quantized) << "sample " << i;
      EXPECT_LE(std::abs(loaded[i] - clipped), 0.5 / 32767.0 + 1e-12)
          << "sample " << i;
    }

    // A second round trip of already-quantized data must be exact.
    write_wav(path, loaded);
    const Signal again = read_wav(path);
    ASSERT_EQ(again.size(), loaded.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
      EXPECT_DOUBLE_EQ(again[i], loaded[i]) << "sample " << i;
    }
  }
  std::remove(path.c_str());
}

TEST(FuzzDifferential, WavDecodeSurvivesMutatedAndTruncatedStreams) {
  // Robustness fuzz for the hardened decoder: starting from a valid stream,
  // random byte mutations and truncations must always end in either a
  // decoded Signal or a vibguard::Error — never UB, a crash, or a foreign
  // exception type. The seed reproduces any failure exactly.
  const std::size_t iters = testing::fuzz_iterations();
  const std::uint64_t base = testing::fuzz_base_seed();
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 200));
    const double rate = static_cast<double>(rng.uniform_int(100, 48000));
    std::vector<std::uint8_t> bytes =
        encode_wav(Signal(random_vector(rng, len, -1.0, 1.0), rate));

    // Truncate to a random prefix half the time, then flip random bytes —
    // header fields, chunk sizes and payload are all fair game.
    if (rng.bernoulli(0.5)) {
      bytes.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()))));
    }
    const auto flips = static_cast<std::size_t>(rng.uniform_int(0, 12));
    for (std::size_t f = 0; f < flips && !bytes.empty(); ++f) {
      const auto at = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(bytes.size()) - 1));
      bytes[at] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }

    try {
      const Signal decoded = decode_wav(bytes, "fuzz");
      // Whatever survived must be internally consistent.
      EXPECT_GT(decoded.sample_rate(), 0.0);
      EXPECT_LE(decoded.size(), bytes.size());  // 2 bytes per sample min
    } catch (const Error&) {
      // Malformed input rejected cleanly: the documented contract.
    }
  }
}

TEST(FuzzDifferential, StreamingMatchesBatchScore) {
  // The streaming pipeline's batch-compatibility invariant, fuzzed: a
  // run-to-completion kExactBatch stream must reproduce the batch score
  // BIT-IDENTICALLY for any push schedule — including single-sample pushes,
  // empty pushes, ragged tails and channels advancing out of lockstep.
  // Runs at whatever VIBGUARD_SIMD level the environment selects, so the
  // CI matrix checks the invariant per dispatch level.
  const std::size_t iters = testing::fuzz_iterations(10);
  const std::uint64_t base = testing::fuzz_base_seed();
  core::DefenseConfig full_cfg;
  const core::DefenseSystem system(full_cfg);
  core::StreamingPipeline pipeline(system);
  core::Workspace workspace;
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);

    eval::ScenarioSimulator sim(eval::ScenarioConfig{}, seed);
    Rng speaker_rng(seed + 1);
    const auto user =
        speech::sample_speaker(rng.bernoulli(0.5) ? speech::Sex::kFemale
                                                  : speech::Sex::kMale,
                               speaker_rng);
    const auto& lexicon = speech::command_lexicon();
    const auto& cmd = lexicon[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(lexicon.size()) - 1))];
    eval::TrialRecordings trial;
    if (rng.bernoulli(0.5)) {
      trial = sim.legitimate_trial(cmd, user);
    } else {
      const auto adv = speech::sample_speaker(speech::Sex::kMale, speaker_rng);
      trial = sim.attack_trial(attacks::AttackType::kReplay, cmd, user, adv);
    }
    core::OracleSegmenter seg(trial.alignment,
                              eval::reference_sensitive_set());

    Rng batch_rng(seed ^ 0xb47c5ULL);
    const core::ScoreOutcome batch = system.try_score(
        trial.va, trial.wearable, &seg, batch_rng, workspace);

    // Random interleaved schedule. Frame sizes are drawn from a mixed
    // distribution so tiny (1-3 sample), medium and block-crossing pushes
    // all occur, with occasional empty frames on one channel.
    pipeline.begin(trial.va.sample_rate(), &seg, Rng(seed ^ 0xb47c5ULL));
    std::size_t va_off = 0;
    std::size_t wear_off = 0;
    while (va_off < trial.va.size() || wear_off < trial.wearable.size()) {
      const auto draw = [&rng]() -> std::size_t {
        const double u = rng.uniform();
        if (u < 0.25) return static_cast<std::size_t>(rng.uniform_int(0, 3));
        if (u < 0.65) {
          return static_cast<std::size_t>(rng.uniform_int(16, 500));
        }
        return static_cast<std::size_t>(rng.uniform_int(1000, 5000));
      };
      const std::size_t va_n =
          std::min(draw(), trial.va.size() - va_off);
      const std::size_t wear_n =
          std::min(draw(), trial.wearable.size() - wear_off);
      pipeline.push(trial.va.samples().subspan(va_off, va_n),
                    trial.wearable.samples().subspan(wear_off, wear_n));
      va_off += va_n;
      wear_off += wear_n;
    }
    const core::StreamOutcome streamed = pipeline.finalize();

    ASSERT_EQ(streamed.outcome.status, batch.status);
    if (batch.ok()) {
      EXPECT_EQ(streamed.outcome.score, batch.score);  // bitwise
    }
  }
}

}  // namespace
}  // namespace vibguard
