// Seeded input panel for the benchmark runner.
//
// One panel holds every command of the lexicon (wake words first, then the
// smart-home commands) twice: once spoken by a legitimate user and once
// launched as a thru-barrier attack. The attack type rotates over all four
// AttackTypes by command index, so every panel has the same mix and only
// the voices, levels and noise depend on the seed. Each trial carries its
// own scoring rng and ground-truth segmenter, so a verdict on trial i is a
// pure function of (seed, i) whatever workload or thread computes it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/segmentation.hpp"
#include "eval/scenario.hpp"

namespace perfbench {

struct Panel {
  std::vector<vibguard::eval::TrialRecordings> trials;
  std::vector<vibguard::core::OracleSegmenter> segmenters;
  std::vector<vibguard::Rng> rngs;  ///< per-trial scoring streams

  std::size_t size() const { return trials.size(); }
};

/// Renders the panel for `seed`. The same seed gives the same panel.
Panel render_panel(std::uint64_t seed);

/// FNV-1a digest over every rendered sample, label and scoring rng of the
/// panel: equal digests mean equal inputs.
std::uint64_t panel_digest(const Panel& panel);

}  // namespace perfbench
