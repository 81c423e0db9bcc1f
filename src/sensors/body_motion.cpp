#include "sensors/body_motion.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace vibguard::sensors {
namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Quasi-periodic oscillation with per-cycle frequency/amplitude jitter
/// plus integer harmonics — the signature of rhythmic limb movement —
/// written over every sample of `out`.
void rhythmic(double f_base, double amp, int harmonics, double fs, Rng& rng,
              Signal& out) {
  const std::size_t n = out.size();
  double phase = rng.uniform(0.0, kTwoPi);
  double f = f_base * rng.uniform(0.9, 1.1);
  for (std::size_t i = 0; i < n; ++i) {
    // Slow random walk of the stride rate.
    f += rng.gaussian(0.0, 0.0005 * f_base);
    f = std::clamp(f, 0.9 * f_base, 1.1 * f_base);
    phase += kTwoPi * f / fs;
    double v = 0.0;
    for (int h = 1; h <= harmonics; ++h) {
      // Limb swing is close to sinusoidal; harmonics fall off fast.
      v += amp / static_cast<double>(h * h * h) *
           std::sin(static_cast<double>(h) * phase);
    }
    out[i] = v;
  }
}

}  // namespace

std::string activity_name(Activity activity) {
  switch (activity) {
    case Activity::kResting: return "resting";
    case Activity::kTyping: return "typing";
    case Activity::kWalking: return "walking";
    case Activity::kRunning: return "running";
  }
  throw InvalidArgument("unknown activity");
}

std::vector<Activity> all_activities() {
  return {Activity::kResting, Activity::kTyping, Activity::kWalking,
          Activity::kRunning};
}

Signal body_motion(Activity activity, double duration_s, double sample_rate,
                   Rng& rng, double scale) {
  Signal out;
  body_motion_into(activity, duration_s, sample_rate, rng, out, scale);
  return out;
}

void body_motion_into(Activity activity, double duration_s,
                      double sample_rate, Rng& rng, Signal& out,
                      double scale) {
  VIBGUARD_REQUIRE(duration_s >= 0.0, "duration must be non-negative");
  VIBGUARD_REQUIRE(sample_rate > 0.0, "sample rate must be positive");
  VIBGUARD_REQUIRE(scale >= 0.0, "scale must be non-negative");
  const auto n = static_cast<std::size_t>(std::round(duration_s *
                                                     sample_rate));
  out.reset(sample_rate);
  out.resize(n);
  switch (activity) {
    case Activity::kResting: {
      // Slow drift: integrated low-pass noise around 0.3 Hz.
      double v = 0.0;
      double phase = rng.uniform(0.0, kTwoPi);
      for (std::size_t i = 0; i < n; ++i) {
        const double t = static_cast<double>(i) / sample_rate;
        v = 0.999 * v + rng.gaussian(0.0, 0.0003);
        out[i] = scale * (0.004 * std::sin(kTwoPi * 0.3 * t + phase) + v);
      }
      return;
    }
    case Activity::kTyping: {
      // Sparse small wrist bumps (keystrokes) at a few per second. Each
      // bump is a raised-cosine pulse: the wrist rocks smoothly rather
      // than receiving a hard impulse, keeping the interference within the
      // daily-activity band.
      const auto pulse_len =
          static_cast<std::size_t>(0.25 * sample_rate);  // 250 ms rock
      for (std::size_t i = 0; i < n; ++i) {
        if (rng.bernoulli(4.0 / sample_rate)) {  // ~4 keystrokes/s
          const double a = scale * rng.uniform(0.005, 0.02);
          const std::size_t tail = std::min<std::size_t>(n - i, pulse_len);
          for (std::size_t j = 0; j < tail; ++j) {
            const double x = static_cast<double>(j) /
                             static_cast<double>(pulse_len);
            out[i + j] += a * 0.5 * (1.0 - std::cos(kTwoPi * x));
          }
        }
      }
      return;
    }
    case Activity::kWalking:
      rhythmic(2.0, scale * 0.05, 2, sample_rate, rng, out);
      return;
    case Activity::kRunning:
      rhythmic(2.9, scale * 0.12, 3, sample_rate, rng, out);
      return;
  }
  throw InvalidArgument("unknown activity");
}

}  // namespace vibguard::sensors
