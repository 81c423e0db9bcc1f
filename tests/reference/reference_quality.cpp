#include "reference/reference_quality.hpp"

#include <algorithm>
#include <cmath>

namespace vibguard::testing {
namespace {

constexpr double kZeroEps = 1e-9;

}  // namespace

void reference_census_update(core::StreamingCensus& c,
                             std::span<const double> samples,
                             std::size_t min_gap) {
  for (const double x : samples) {
    ++c.total;
    if (!std::isfinite(x)) {
      ++c.non_finite;
      if (c.zero_run >= min_gap) {
        c.gap_samples += c.zero_run;
        c.longest_gap = std::max(c.longest_gap, c.zero_run);
      }
      c.zero_run = 0;
      c.longest_const = std::max(c.longest_const,
                                 c.have_prev ? c.const_run : std::size_t{0});
      c.have_prev = false;
      continue;
    }
    ++c.finite_count;
    c.sum += x;
    c.sum_sq += x * x;
    c.peak = std::max(c.peak, std::abs(x));

    if (std::abs(x) <= kZeroEps) {
      ++c.zero_run;
    } else {
      if (c.zero_run >= min_gap) {
        c.gap_samples += c.zero_run;
        c.longest_gap = std::max(c.longest_gap, c.zero_run);
      }
      c.zero_run = 0;
    }

    if (c.have_prev && x == c.prev && std::abs(x) > kZeroEps) {
      ++c.const_run;
    } else {
      c.longest_const = std::max(c.longest_const,
                                 c.have_prev ? c.const_run : std::size_t{0});
      c.const_run = 1;
    }
    c.prev = x;
    c.have_prev = true;
  }
}

core::ChannelQuality reference_census_finalize(
    const core::StreamingCensus& c, const Signal& signal,
    const core::QualityConfig& cfg) {
  core::ChannelQuality q;
  q.samples = signal.size();
  q.duration_s = signal.duration();
  q.non_finite = c.non_finite;
  if (signal.empty()) {
    q.issues |= core::kIssueTooShort | core::kIssueLowSignal;
    return q;
  }
  const double rate = signal.sample_rate();
  const std::size_t min_gap = core::min_gap_samples(cfg, rate);
  const std::size_t n = signal.size();

  std::size_t gaps = c.gap_samples, top_gap = c.longest_gap;
  if (c.zero_run >= min_gap) {
    gaps += c.zero_run;
    top_gap = std::max(top_gap, c.zero_run);
  }
  const std::size_t top_const =
      std::max(c.longest_const, c.have_prev ? c.const_run : std::size_t{0});

  if (c.finite_count > 0) {
    const double inv = 1.0 / static_cast<double>(c.finite_count);
    q.dc_offset = c.sum * inv;
    q.rms = std::sqrt(c.sum_sq * inv);
    q.peak = c.peak;
  }
  q.gap_ratio = static_cast<double>(gaps) / static_cast<double>(n);
  q.longest_gap_s = rate > 0.0 ? static_cast<double>(top_gap) / rate : 0.0;
  q.stuck_ratio = static_cast<double>(top_const) / static_cast<double>(n);

  if (c.peak > 0.0) {
    const double clip_level = cfg.clip_level_fraction * c.peak;
    std::size_t clipped = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double x = signal[i];
      if (std::isfinite(x) && std::abs(x) >= clip_level) ++clipped;
    }
    q.clip_ratio = static_cast<double>(clipped) / static_cast<double>(n);
  }

  if (q.non_finite > 0) q.issues |= core::kIssueNonFinite;
  if (q.duration_s < cfg.min_duration_s) q.issues |= core::kIssueTooShort;
  if (q.rms < cfg.min_rms) q.issues |= core::kIssueLowSignal;
  if (q.clip_ratio > cfg.max_clip_ratio) q.issues |= core::kIssueClipping;
  if (q.gap_ratio > cfg.max_gap_ratio) q.issues |= core::kIssueGaps;
  if (q.rms > 0.0 && std::abs(q.dc_offset) > cfg.max_dc_fraction * q.rms) {
    q.issues |= core::kIssueDcOffset;
  }
  if (q.stuck_ratio > cfg.max_stuck_ratio) q.issues |= core::kIssueStuck;
  return q;
}

core::ChannelQuality reference_assess_channel(const Signal& signal,
                                              const core::QualityConfig& cfg) {
  core::StreamingCensus census;
  if (!signal.empty()) {
    reference_census_update(census, signal.samples(),
                            core::min_gap_samples(cfg, signal.sample_rate()));
  }
  return reference_census_finalize(census, signal, cfg);
}

}  // namespace vibguard::testing
