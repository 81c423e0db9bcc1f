#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

namespace {

struct CatalogEntry {
  const char* name;
  const char* unit;
};

// Printed by every untraced run (all must be recorded).
constexpr CatalogEntry kEndToEnd[] = {
    {"verdicts_per_s", "1/s"},
    {"verdict_ms.trial_min.p50", "ms"},
    {"verdict_ms.trial_min.p90", "ms"},
    {"verdict_ms.trial_min.p99", "ms"},
    {"verdict_acc", "ratio"},
    {"slo_frac", "ratio"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Printed by every traced run (0 where the layer does not run).
constexpr CatalogEntry kPerLayer[] = {
    {"stage.quality.ns", "ns"},
    {"stage.sync.ns", "ns"},
    {"stage.segment.ns", "ns"},
    {"stage.vib_capture.ns", "ns"},
    {"stage.features.ns", "ns"},
    {"stage.audio_features.ns", "ns"},
    {"stage.correlate.ns", "ns"},
    {"stage.quality.share", "ratio"},
    {"stage.sync.share", "ratio"},
    {"stage.segment.share", "ratio"},
    {"stage.vib_capture.share", "ratio"},
    {"stage.features.share", "ratio"},
    {"stage.audio_features.share", "ratio"},
    {"stage.correlate.share", "ratio"},
    {"stage.sync.ns_per_ksample", "ns/ksample"},
    {"stage.vib_capture.ns_per_ksample", "ns/ksample"},
    {"stage.sum_over_verdict", "ratio"},
    {"trace.overhead", "ratio"},
    {"sensors.speaker.ns", "ns"},
    {"sensors.accel.ns", "ns"},
    {"stream.push_ns", "ns"},
    {"stream.finalize_ns", "ns"},
    {"stream.blocks", "count"},
    {"stream.push_growth", "ratio"},
    {"serving.submit_ns.p50", "ns"},
    {"serving.queue_ms.p50", "ms"},
    {"serving.queue_ms.p99", "ms"},
    {"serving.exec_ms.p50", "ms"},
    {"serving.batch_size.mean", "count"},
    {"serving.rejected", "count"},
    {"serving.expired", "count"},
    {"serving.worker_busy_frac", "ratio"},
    {"serving.imbalance", "ratio"},
    {"gen.lag_ms.p99", "ms"},
    {"allocs_per_verdict", "count"},
    {"setup.render_s", "s"},
    {"setup.system_s", "s"},
};

template <std::size_t N>
const CatalogEntry* find(const CatalogEntry (&table)[N],
                         const std::string& name) {
  for (const CatalogEntry& e : table) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

}  // namespace

void Report::add(const std::string& name, double value) {
  const bool e2e = find(kEndToEnd, name) != nullptr;
  if (!e2e && find(kPerLayer, name) == nullptr) {
    throw std::logic_error("metric not in the catalog: " + name);
  }
  if (e2e == traced_) return;  // the other kind of run prints it
  values_.emplace_back(name, value);
}

void Report::fail(const std::string& why) {
  if (++failures_ <= 5) {
    std::fprintf(stderr, "check failed: %s\n", why.c_str());
  }
  correct_ = false;
}

void Report::print_json() const {
  const auto emit = [&](const auto& table) {
    bool first = true;
    for (const CatalogEntry& e : table) {
      double value = 0.0;
      bool found = false;
      for (const auto& [name, v] : values_) {
        if (name == e.name) {
          value = v;
          found = true;
        }
      }
      if (!found && !traced_) {
        throw std::logic_error(std::string("metric not recorded: ") + e.name);
      }
      if (!std::isfinite(value)) value = 0.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", e.name, value, e.unit);
      first = false;
    }
  };
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  if (traced_) {
    emit(kPerLayer);
  } else {
    emit(kEndToEnd);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double Samples::percentile(double q) const {
  if (xs_.empty()) return 0.0;
  std::vector<double> v = xs_;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Samples::sum() const {
  return std::accumulate(xs_.begin(), xs_.end(), 0.0);
}

double Samples::mean() const {
  return xs_.empty() ? 0.0 : sum() / static_cast<double>(xs_.size());
}

std::size_t longest_trial(const Panel& panel) {
  std::size_t best = 0;
  for (std::size_t t = 1; t < panel.size(); ++t) {
    if (panel.trials[t].va.size() > panel.trials[best].va.size()) best = t;
  }
  return best;
}

Samples PerTrial::minima() const {
  Samples out;
  for (const Samples& s : samples_) {
    if (!s.empty()) out.add(s.percentile(0));
  }
  return out;
}

void add_verdict_metrics(Report& report, const Samples& per_trial_ms,
                         double verdicts_per_s, double accuracy,
                         std::uint64_t ok_within_slo) {
  report.add("verdicts_per_s", verdicts_per_s);
  report.add("verdict_ms.trial_min.p50", per_trial_ms.percentile(50));
  report.add("verdict_ms.trial_min.p90", per_trial_ms.percentile(90));
  report.add("verdict_ms.trial_min.p99", per_trial_ms.percentile(99));
  report.add("verdict_acc", accuracy);
  report.add("slo_frac",
             report.attempted > 0
                 ? static_cast<double>(ok_within_slo) /
                       static_cast<double>(report.attempted)
                 : 0.0);
}

bool add_setup_metrics(Report& report, const SetupTimes& setup,
                       const Options& opt) {
  if (opt.setup_only) {
    std::printf("%.17g\n", setup.total_s);
    return true;
  }
  report.add("setup_s", setup.total_s);
  report.add("setup.render_s", setup.render_s);
  report.add("setup.system_s", setup.system_s);
  return false;
}

void add_memory_metric(Report& report) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  // Linux reports ru_maxrss in KiB.
  report.add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace perfbench
