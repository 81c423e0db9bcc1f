// Shared pieces of the benchmark runner: options, the result report,
// sample statistics and the repeated set-up timer.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "panel.hpp"

namespace perfbench {

using BenchClock = std::chrono::steady_clock;

inline double seconds_between(BenchClock::time_point a,
                              BenchClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double ns_between(BenchClock::time_point a, BenchClock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Stop after set-up and print only its time in seconds: run.py reports
  /// the median over this process and set-up-only runs in fresh processes.
  bool setup_only = false;
  /// Steady-clock reading at the top of main(): set-up is timed from here.
  BenchClock::time_point process_start;
};

/// One run's verdict on correctness plus its named metrics, printed as the
/// last line of standard output. Metric names and units come from one
/// catalog (report.cpp): an untraced run prints every end-to-end metric, a
/// traced run every per-layer metric, and a per-layer metric whose layer
/// does not run in the workload reads 0.
class Report {
 public:
  explicit Report(bool traced) : traced_(traced) {}

  /// Records `name`, which must be in the catalog of this run's kind.
  void add(const std::string& name, double value);

  /// Marks the run incorrect; the first few reasons go to stderr.
  void fail(const std::string& why);

  bool correct() const { return correct_; }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void print_json() const;

 private:
  bool traced_;
  std::vector<std::pair<std::string, double>> values_;
  bool correct_ = true;
  int failures_ = 0;
};

/// Sample set with percentile / mean summaries.
class Samples {
 public:
  void add(double x) { xs_.push_back(x); }
  std::size_t size() const { return xs_.size(); }
  bool empty() const { return xs_.empty(); }

  /// Linear-interpolated percentile, q in [0, 100]; 0 when empty.
  double percentile(double q) const;
  double mean() const;
  double sum() const;

 private:
  std::vector<double> xs_;
};

/// One set-up, timed from process start.
struct SetupTimes {
  double total_s = 0.0;   ///< process start to first timed request
  double render_s = 0.0;  ///< panel rendering
  double system_s = 0.0;  ///< system / server build + warm-up verdict
};

/// Renders the panel, then runs `build(panel)`, which constructs the
/// system under test and serves one warm-up verdict. The whole set-up is
/// timed from process start, so it includes every cold first-use cost.
template <class State, class Build>
std::unique_ptr<State> timed_setup(const Options& opt, SetupTimes& times,
                                   Build build) {
  const auto t0 = BenchClock::now();
  Panel panel = render_panel(opt.seed);
  const auto t1 = BenchClock::now();
  std::unique_ptr<State> state = build(std::move(panel));
  const auto t2 = BenchClock::now();
  times.total_s = seconds_between(opt.process_start, t2);
  times.render_s = seconds_between(t0, t1);
  times.system_s = seconds_between(t1, t2);
  return state;
}

/// Index of the panel trial with the longest VA recording: the warm-up
/// verdict, which grows every reusable buffer to its high-water size.
std::size_t longest_trial(const Panel& panel);

/// Latencies grouped by panel trial. The verdict_ms.trial_min percentiles
/// are taken over the panel's trials, one figure per trial: its fastest
/// verdict in the run. They are not percentiles of individual requests. On a shared machine the same work runs 10-20% slower for minutes at
/// a time, and a server whose workers idle between requests pays a wake-up
/// cost that varies even more; a trial's fastest verdict is the steadiest
/// estimate of what it costs. The tail of individual requests is bounded
/// only through slo_frac, and traced by serving.queue_ms.
class PerTrial {
 public:
  explicit PerTrial(std::size_t trials) : samples_(trials) {}
  void add(std::size_t trial, double ms) { samples_[trial].add(ms); }
  /// The fastest sample of every trial seen at least once.
  Samples minima() const;

 private:
  std::vector<Samples> samples_;
};

/// The end-to-end verdict metrics shared by every workload: percentiles
/// over `per_trial_ms` (one figure per panel trial) plus throughput,
/// accuracy and the share of attempted verdicts that ended ok within
/// kSloMs of when they were due.
void add_verdict_metrics(Report& report, const Samples& per_trial_ms,
                         double verdicts_per_s, double accuracy,
                         std::uint64_t ok_within_slo);

/// Set-up metrics: setup_s (end-to-end), setup.render_s and
/// setup.system_s (per-layer). In a set-up-only run, prints setup_s and
/// returns true: the caller stops there.
bool add_setup_metrics(Report& report, const SetupTimes& setup,
                       const Options& opt);

/// Peak resident set size of this process in MB, read once the measured
/// run is over so that memory grown on the verdict path shows.
void add_memory_metric(Report& report);

/// Bit-exact equality of two doubles (NaN-safe).
bool same_bits(double a, double b);

/// Milliseconds within which a verdict counts towards `slo_frac`.
inline constexpr double kSloMs = 100.0;

}  // namespace perfbench
