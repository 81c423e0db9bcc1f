#include "core/quality.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "dsp/simd.hpp"

namespace vibguard::core {
namespace simd = dsp::simd;
namespace {

/// Amplitude below which a sample counts as "zero" for gap detection.
constexpr double kZeroEps = 1e-9;

struct IssueName {
  std::uint32_t flag;
  const char* name;
  const char* reason;  ///< phrasing used for QualityReport::reason
};

// Priority order: when several fatal issues are raised, the first match
// becomes the report's reason.
constexpr IssueName kIssueNames[] = {
    {kIssueNonFinite, "non_finite", "non_finite_samples"},
    {kIssueTooShort, "too_short", "too_short"},
    {kIssueLowSignal, "low_signal", "low_signal"},
    {kIssueDesync, "desync", "desync"},
    {kIssueClipping, "clipping", "clipping"},
    {kIssueGaps, "gaps", "gaps"},
    {kIssueStuck, "stuck", "stuck_sensor"},
    {kIssueDcOffset, "dc_offset", "dc_offset"},
};

// One sample of the census walk: the former assess_channel pass 1 body
// verbatim, with its state lifted into the struct.
void census_step(StreamingCensus& c, double x, std::size_t min_gap) {
  ++c.total;
  if (!std::isfinite(x)) {
    ++c.non_finite;
    // A non-finite sample terminates both runs.
    if (c.zero_run >= min_gap) {
      c.gap_samples += c.zero_run;
      c.longest_gap = std::max(c.longest_gap, c.zero_run);
    }
    c.zero_run = 0;
    c.longest_const = std::max(c.longest_const,
                               c.have_prev ? c.const_run : std::size_t{0});
    c.have_prev = false;
    return;
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

}  // namespace

std::string quality_issue_names(std::uint32_t issues) {
  if (issues == 0) return "none";
  std::string out;
  for (const IssueName& entry : kIssueNames) {
    if ((issues & entry.flag) == 0) continue;
    if (!out.empty()) out += '+';
    out += entry.name;
  }
  return out.empty() ? "unknown" : out;
}

std::size_t min_gap_samples(const QualityConfig& cfg, double sample_rate) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(cfg.min_gap_s * sample_rate));
}

void StreamingCensus::update(std::span<const double> samples,
                             std::size_t min_gap) {
  // Every accumulation is strictly left to right, so any chunking of the
  // input reproduces the whole-signal walk bit for bit. Most samples are
  // plain: finite, not a zero, and unequal to the one before. Once the
  // previous sample was plain too (no open zero run, a constant run of 1),
  // a plain sample only adds to the sums, raises the peak and closes a
  // constant run of 1, so whole blocks of them go through the dispatched
  // scan; the block that holds an event takes the per-sample body.
  const simd::Ops& ops = simd::ops();
  const double* x = samples.data();
  const std::size_t n = samples.size();
  std::size_t i = 0;
  while (i < n) {
    if (have_prev && const_run == 1 && zero_run == 0) {
      simd::CensusSums acc{sum, sum_sq, peak};
      const std::size_t plain =
          ops.census_plain(x + i, n - i, prev, kZeroEps, acc);
      if (plain > 0) {
        sum = acc.sum;
        sum_sq = acc.sum_sq;
        peak = acc.peak;
        total += plain;
        finite_count += plain;
        longest_const = std::max(longest_const, const_run);
        prev = x[i + plain - 1];
        i += plain;
      }
    }
    const std::size_t stop = std::min(n, i + 4);
    for (; i < stop; ++i) census_step(*this, x[i], min_gap);
  }
}

ChannelQuality StreamingCensus::finalize(const Signal& signal,
                                         const QualityConfig& cfg) const {
  ChannelQuality q;
  q.samples = signal.size();
  q.duration_s = signal.duration();
  q.non_finite = non_finite;
  if (signal.empty()) {
    q.issues |= kIssueTooShort | kIssueLowSignal;
    return q;
  }
  const double rate = signal.sample_rate();
  const std::size_t min_gap = min_gap_samples(cfg, rate);
  const std::size_t n = signal.size();

  // Close the trailing zero/constant runs on locals so the census itself
  // remains updatable (a provisional mid-stream report must not disturb the
  // carried state).
  std::size_t gaps = gap_samples, top_gap = longest_gap;
  if (zero_run >= min_gap) {
    gaps += zero_run;
    top_gap = std::max(top_gap, zero_run);
  }
  const std::size_t top_const =
      std::max(longest_const, have_prev ? const_run : std::size_t{0});

  if (finite_count > 0) {
    const double inv = 1.0 / static_cast<double>(finite_count);
    q.dc_offset = sum * inv;
    q.rms = std::sqrt(sum_sq * inv);
    q.peak = peak;
  }
  q.gap_ratio = static_cast<double>(gaps) / static_cast<double>(n);
  q.longest_gap_s = rate > 0.0 ? static_cast<double>(top_gap) / rate : 0.0;
  q.stuck_ratio = static_cast<double>(top_const) / static_cast<double>(n);

  // Pass 2: clipping census needs the peak from pass 1.
  if (peak > 0.0) {
    const double clip_level = cfg.clip_level_fraction * peak;
    const std::size_t clipped = simd::ops().count_clipped(
        signal.samples().data(), n, clip_level);
    q.clip_ratio = static_cast<double>(clipped) / static_cast<double>(n);
  }

  if (q.non_finite > 0) q.issues |= kIssueNonFinite;
  if (q.duration_s < cfg.min_duration_s) q.issues |= kIssueTooShort;
  if (q.rms < cfg.min_rms) q.issues |= kIssueLowSignal;
  if (q.clip_ratio > cfg.max_clip_ratio) q.issues |= kIssueClipping;
  if (q.gap_ratio > cfg.max_gap_ratio) q.issues |= kIssueGaps;
  if (q.rms > 0.0 && std::abs(q.dc_offset) > cfg.max_dc_fraction * q.rms) {
    q.issues |= kIssueDcOffset;
  }
  if (q.stuck_ratio > cfg.max_stuck_ratio) q.issues |= kIssueStuck;
  return q;
}

ChannelQuality assess_channel(const Signal& signal, const QualityConfig& cfg) {
  StreamingCensus census;
  if (!signal.empty()) {
    census.update(signal.samples(),
                  min_gap_samples(cfg, signal.sample_rate()));
  }
  return census.finalize(signal, cfg);
}

std::uint32_t fatal_issue_mask(QualityConfig::Gate gate) {
  switch (gate) {
    case QualityConfig::Gate::kOff:
      return 0;
    case QualityConfig::Gate::kPermissive:
      return kIssueNonFinite | kIssueTooShort | kIssueLowSignal;
    case QualityConfig::Gate::kStrict:
      return ~std::uint32_t{0};
  }
  return ~std::uint32_t{0};
}

void apply_gate(const QualityConfig& cfg, QualityReport& report) {
  report.fatal = report.issues & fatal_issue_mask(cfg.gate);
  report.scoreable = report.fatal == 0;
  report.reason = "ok";
  if (report.scoreable) return;
  for (const IssueName& entry : kIssueNames) {
    if ((report.fatal & entry.flag) != 0) {
      report.reason = entry.reason;
      return;
    }
  }
  report.reason = "unscoreable";
}

void assess_pair(const Signal& va, const Signal& wearable,
                 const QualityConfig& cfg, QualityReport& report) {
  report.clear();
  report.va = assess_channel(va, cfg);
  report.wearable = assess_channel(wearable, cfg);
  report.issues = report.va.issues | report.wearable.issues;
  apply_gate(cfg, report);
}

void QualityReport::clear() {
  va = ChannelQuality{};
  wearable = ChannelQuality{};
  issues = 0;
  fatal = 0;
  scoreable = true;
  reason = "ok";
}

std::string QualityReport::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s (issues=%s) va[rms=%.3g clip=%.0f%% gap=%.0f%%] "
                "wear[rms=%.3g clip=%.0f%% gap=%.0f%%]",
                scoreable ? "scoreable" : reason,
                quality_issue_names(issues).c_str(), va.rms,
                100.0 * va.clip_ratio, 100.0 * va.gap_ratio, wearable.rms,
                100.0 * wearable.clip_ratio, 100.0 * wearable.gap_ratio);
  return buf;
}

}  // namespace vibguard::core
