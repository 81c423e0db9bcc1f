#include "device/wearable.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "common/alloc_counter.hpp"
#include "dsp/generate.hpp"
#include "dsp/spectral.hpp"

namespace vibguard::device {
namespace {

TEST(WearableTest, PresetsHaveDistinctProperties) {
  const auto fossil = fossil_gen5();
  const auto moto = moto360();
  EXPECT_EQ(fossil.name, "Fossil Gen 5");
  EXPECT_EQ(moto.name, "Moto 360 (2020)");
  EXPECT_GT(moto.accelerometer.base_noise_rms,
            fossil.accelerometer.base_noise_rms);
}

TEST(WearableTest, RecordProducesMicRateSignal) {
  Wearable w;
  Rng rng(1);
  const Signal in = dsp::tone(1000.0, 0.5, 16000.0, 0.05);
  const Signal rec = w.record(in, rng);
  EXPECT_DOUBLE_EQ(rec.sample_rate(), 16000.0);
  EXPECT_EQ(rec.size(), in.size());
}

TEST(WearableTest, CrossDomainCaptureProducesVibrationRate) {
  Wearable w;
  Rng rng(2);
  const Signal rec = dsp::tone(1500.0, 1.0, 16000.0, 0.05);
  const Signal vib = w.cross_domain_capture(rec, rng);
  EXPECT_DOUBLE_EQ(vib.sample_rate(), 200.0);
  EXPECT_GT(vib.rms(), 0.0);
}

TEST(WearableTest, HighFrequencyContentSurvivesConversion) {
  // The defining property of cross-domain sensing: HF audio content creates
  // vibration; LF-only audio creates mostly noise.
  Wearable w;
  Rng r1(3), r2(3);
  const Signal hf = dsp::tone(2130.0, 1.0, 16000.0, 0.05);  // aliases to 70 Hz
  const Signal lf = dsp::tone(250.0, 1.0, 16000.0, 0.05);
  const Signal vib_hf = w.cross_domain_capture(hf, r1);
  const Signal vib_lf = w.cross_domain_capture(lf, r2);
  // The HF signal yields a far stronger deterministic vibration: its band
  // energy concentrates at the alias frequency while LF yields noise.
  EXPECT_GT(vib_hf.rms(), 2.0 * vib_lf.rms());
}

TEST(WearableTest, CaptureIsReproducibleGivenSeed) {
  Wearable w;
  Rng r1(4), r2(4);
  const Signal rec = dsp::tone(1200.0, 0.5, 16000.0, 0.05);
  const Signal v1 = w.cross_domain_capture(rec, r1);
  const Signal v2 = w.cross_domain_capture(rec, r2);
  ASSERT_EQ(v1.size(), v2.size());
  for (std::size_t i = 0; i < v1.size(); ++i) {
    EXPECT_DOUBLE_EQ(v1[i], v2[i]);
  }
}

// Recordings at three lengths on three different filter grids (8192,
// 16384 and 32768 points), none a power of two.
std::vector<Signal> mixed_length_recordings() {
  Rng rng(21);
  const Signal base = dsp::pink_noise(1.5, 16000.0, 0.05, rng);
  return {base.slice(0, 19301), base.slice(0, 7001), base.slice(0, 12345)};
}

bool same_bits(const Signal& a, const Signal& b) {
  return a.size() == b.size() && a.sample_rate() == b.sample_rate() &&
         std::memcmp(a.samples().data(), b.samples().data(),
                     a.size() * sizeof(double)) == 0;
}

TEST(WearableTest, InterleavedDevicesMatchFreshCaptures) {
  // Fossil Gen 5 and Moto 360 differ in speaker low_cut_hz, so their
  // per-thread cached response tables must never be confused. Interleave
  // both devices over alternating lengths on one shared scratch and compare
  // each capture with the same capture made on a new thread (empty table
  // cache) with fresh scratch.
  const Wearable devices[2] = {Wearable(fossil_gen5()), Wearable(moto360())};
  const auto recordings = mixed_length_recordings();
  Signal fresh[2][3];
  std::thread([&] {
    for (int d = 0; d < 2; ++d) {
      for (std::size_t r = 0; r < recordings.size(); ++r) {
        Rng rng(100 + r);
        dsp::Scratch scratch;
        devices[d].cross_domain_capture_into(recordings[r], rng, fresh[d][r],
                                             scratch);
      }
    }
  }).join();

  dsp::Scratch shared;
  Signal out;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t r = 0; r < recordings.size(); ++r) {
      for (int d = 0; d < 2; ++d) {
        Rng rng(100 + r);
        devices[d].cross_domain_capture_into(recordings[r], rng, out, shared);
        EXPECT_TRUE(same_bits(out, fresh[d][r]))
            << "device " << d << " recording " << r << " round " << round;
      }
    }
  }
  EXPECT_FALSE(same_bits(fresh[0][0], fresh[1][0]));
}

TEST(WearableTest, SteadyStateCaptureIsAllocationFree) {
  // Once one scratch has seen every device/length combination, further
  // captures — including the gain-table cache lookups and, in the activity
  // overload, the generated body motion — allocate nothing.
  const Wearable devices[2] = {Wearable(fossil_gen5()), Wearable(moto360())};
  const auto recordings = mixed_length_recordings();
  const auto activities = sensors::all_activities();
  dsp::Scratch scratch;
  Signal out;
  const auto sweep = [&] {
    for (std::size_t r = 0; r < recordings.size(); ++r) {
      for (const Wearable& w : devices) {
        Rng rng(7);
        w.cross_domain_capture_into(recordings[r], rng, out, scratch);
        for (sensors::Activity activity : activities) {
          w.cross_domain_capture_into(recordings[r], activity, rng, out,
                                      scratch);
        }
      }
    }
  };
  sweep();
  const std::uint64_t before = allocation_count();
  sweep();
  sweep();
  EXPECT_EQ(allocation_count() - before, 0u);
}

}  // namespace
}  // namespace vibguard::device
