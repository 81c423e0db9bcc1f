// VibGuard benchmark runner.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --workload <name> --seed <n> --setup-only
//   perfbench --digest --seed <n>
//
// Renders the seeded input panel, sets up the system under test (timed
// from process start), then measures one workload for --seconds and
// prints, as the last line of standard output, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones from a separately
// traced run. --setup-only stops after set-up and prints its time in
// seconds; run.py reports the median of three such cold set-ups. --digest
// prints the panel's digest instead, so a seed can be checked to always
// render the same inputs.
// See README.md for the workloads and metrics.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Options;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload "
               "batch-mix|audio-baseline|served-open --seed N "
               "--seconds S --trace 0|1\n"
               "       perfbench --workload W --seed N --setup-only\n"
               "       perfbench --digest --seed N\n",
               why);
  std::exit(2);
}

std::uint64_t parse_count(const char* flag, const char* text) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return x;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.process_start = perfbench::BenchClock::now();
  bool digest = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (std::strcmp(flag, "--digest") == 0) {
      digest = true;
      continue;
    }
    if (std::strcmp(flag, "--setup-only") == 0) {
      opt.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage((std::string("missing value for ") + flag).c_str());
    }
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      opt.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      opt.seed = parse_count(flag, value);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      opt.seconds = static_cast<double>(parse_count(flag, value));
    } else if (std::strcmp(flag, "--trace") == 0) {
      opt.trace = parse_count(flag, value) != 0;
    } else {
      usage((std::string("unknown flag ") + flag).c_str());
    }
  }

  try {
    if (digest) {
      std::printf("%016llx\n",
                  static_cast<unsigned long long>(perfbench::panel_digest(
                      perfbench::render_panel(opt.seed))));
      return 0;
    }
    perfbench::Report report(opt.trace);
    if (opt.workload == "batch-mix") {
      report = perfbench::run_batch(opt, vibguard::core::DefenseMode::kFull);
    } else if (opt.workload == "audio-baseline") {
      report = perfbench::run_batch(
          opt, vibguard::core::DefenseMode::kAudioBaseline);
    } else if (opt.workload == "served-open") {
      report = perfbench::run_served(opt);
    } else {
      usage("unknown workload");
    }
    if (!opt.setup_only) report.print_json();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
