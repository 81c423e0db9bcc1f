// Body-motion interference profiles.
//
// A worn accelerometer sees the wearer's movement on top of any acoustic
// vibration. Daily activities concentrate in 0.3–3.5 Hz (paper ref. [22]);
// these generators produce activity-specific interference at the
// accelerometer rate so the defense's motion robustness can be quantified
// (the ≤5 Hz crop is designed to remove exactly this band).
#pragma once

#include <string>

#include "common/rng.hpp"
#include "common/signal.hpp"

namespace vibguard::sensors {

enum class Activity {
  kResting,  ///< hand still: slow drift only
  kTyping,   ///< intermittent small wrist impulses
  kWalking,  ///< strong ~2 Hz arm swing with harmonics
  kRunning,  ///< ~3 Hz swing, larger amplitude, more harmonics
};

/// Human-readable activity name.
std::string activity_name(Activity activity);

/// All modeled activities, mildest first.
std::vector<Activity> all_activities();

/// Generates `duration_s` of motion interference at `sample_rate`
/// (typically the accelerometer's 200 Hz). Amplitude scale 1.0 gives
/// activity-typical magnitudes in the normalized acceleration unit.
Signal body_motion(Activity activity, double duration_s, double sample_rate,
                   Rng& rng, double scale = 1.0);

/// Allocation-free overload of body_motion(): writes the same samples into
/// `out`, reusing its capacity, with the same rng draws.
void body_motion_into(Activity activity, double duration_s,
                      double sample_rate, Rng& rng, Signal& out,
                      double scale = 1.0);

}  // namespace vibguard::sensors
