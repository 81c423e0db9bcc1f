// Loudspeaker models: the adversary's playback device and the wearable's
// small built-in speaker used for cross-domain replay.
#pragma once

#include <complex>
#include <vector>

#include "common/signal.hpp"

namespace vibguard::sensors {

struct SpeakerConfig {
  double low_cut_hz;   ///< driver low-frequency limit
  double high_cut_hz;  ///< driver high-frequency limit
  double distortion;   ///< soft-clipping drive (0 = linear)
};

/// Full-range playback device (paper: Razer Sound Bar RC30).
SpeakerConfig playback_loudspeaker();

/// Tiny wearable driver (smartwatch speaker): weak below ~350 Hz.
SpeakerConfig wearable_speaker();

/// Renders a digital signal into acoustic output through the driver's
/// band-limited response and mild odd-order nonlinearity.
class Speaker {
 public:
  explicit Speaker(SpeakerConfig config);

  const SpeakerConfig& config() const { return config_; }

  Signal render(const Signal& in) const;

  /// Allocation-free overload: renders into `out` using `work` as the
  /// spectrum buffer, both reusing existing capacity. The response is
  /// sampled once per filter grid into a per-thread cached table.
  void render_into(const Signal& in, Signal& out,
                   std::vector<std::complex<double>>& work) const;

  /// Amplitude response at frequency `f_hz`.
  double response(double f_hz) const;

 private:
  SpeakerConfig config_;
};

}  // namespace vibguard::sensors
