#include "sensors/speaker.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dsp/filter.hpp"
#include "dsp/generate.hpp"
#include "dsp/spectral.hpp"

namespace vibguard::sensors {
namespace {

TEST(SpeakerTest, WearableSpeakerWeakBelow350) {
  Speaker s(wearable_speaker());
  EXPECT_LT(s.response(100.0), 0.15);
  EXPECT_NEAR(s.response(2000.0), 1.0, 0.1);
}

TEST(SpeakerTest, PlaybackLoudspeakerFullerRange) {
  Speaker playback(playback_loudspeaker());
  Speaker wearable(wearable_speaker());
  EXPECT_GT(playback.response(150.0), 3.0 * wearable.response(150.0));
}

TEST(SpeakerTest, RenderShiftsBalanceUpward) {
  Rng rng(1);
  const Signal in = dsp::pink_noise(1.0, 16000.0, 0.1, rng);
  Speaker s(wearable_speaker());
  const Signal out = s.render(in);
  EXPECT_GT(dsp::spectral_centroid(out), dsp::spectral_centroid(in));
}

TEST(SpeakerTest, LinearSpeakerPreservesWaveformShape) {
  SpeakerConfig cfg = playback_loudspeaker();
  cfg.distortion = 0.0;
  Speaker s(cfg);
  const Signal in = dsp::tone(1000.0, 0.2, 16000.0, 0.1);
  const Signal out = s.render(in);
  // Mid-band tone passes nearly unchanged.
  EXPECT_NEAR(out.rms(), in.rms(), 0.05 * in.rms());
}

TEST(SpeakerTest, DistortionAddsHarmonics) {
  SpeakerConfig cfg = playback_loudspeaker();
  cfg.distortion = 0.3;
  Speaker s(cfg);
  const Signal in = dsp::tone(500.0, 0.5, 16000.0, 1.0);
  const Signal out = s.render(in);
  // Odd-order distortion puts energy at 1500 Hz.
  EXPECT_GT(dsp::band_energy(out, 1400.0, 1600.0),
            5.0 * dsp::band_energy(in, 1400.0, 1600.0) + 1e-12);
}

TEST(SpeakerTest, CachedResponseTableMatchesDirectCurve) {
  // render_into samples the response into a per-thread cached table; with
  // distortion off it must equal the gain filter evaluated curve-by-call,
  // for both speakers and across grid sizes, in either order.
  Rng rng(2);
  const Signal long_in = dsp::pink_noise(1.3, 16000.0, 0.1, rng);
  const Signal short_in = long_in.slice(0, 5001);
  for (SpeakerConfig cfg : {wearable_speaker(), playback_loudspeaker(),
                            wearable_speaker()}) {
    cfg.distortion = 0.0;
    const Speaker s(cfg);
    for (const Signal* in : {&long_in, &short_in, &long_in}) {
      Signal out;
      std::vector<std::complex<double>> work;
      s.render_into(*in, out, work);
      const Signal want = dsp::apply_gain_curve(
          *in, [&s](double f) { return s.response(f); });
      ASSERT_EQ(out.size(), want.size());
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i], want[i]) << "sample " << i;
      }
    }
  }
}

TEST(SpeakerTest, RejectsBadConfig) {
  SpeakerConfig cfg{1000.0, 100.0, 0.0};
  EXPECT_THROW(Speaker{cfg}, vibguard::InvalidArgument);
  SpeakerConfig cfg2{100.0, 1000.0, -0.1};
  EXPECT_THROW(Speaker{cfg2}, vibguard::InvalidArgument);
}

}  // namespace
}  // namespace vibguard::sensors
