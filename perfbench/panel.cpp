#include "panel.hpp"

#include <cstring>

#include "attacks/attack.hpp"
#include "eval/experiment.hpp"
#include "speech/command.hpp"
#include "speech/speaker.hpp"

namespace perfbench {

namespace v = vibguard;

namespace {

constexpr std::size_t kSpeakers = 6;

class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t x) { bytes(&x, sizeof x); }
  void f64(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    u64(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

Panel render_panel(std::uint64_t seed) {
  std::vector<v::speech::VoiceCommand> commands;
  for (const auto& c : v::speech::wake_words()) commands.push_back(c);
  for (const auto& c : v::speech::command_lexicon()) commands.push_back(c);

  v::Rng voices(seed ^ 0x5eedf00dULL);
  const auto speakers = v::speech::sample_population(kSpeakers, voices);
  const auto attacks = v::attacks::all_attack_types();
  v::eval::ScenarioSimulator sim(v::eval::ScenarioConfig{},
                                 seed ^ 0x5ce9a21ULL);
  const v::Rng score_rng(seed ^ 0x7e57ULL);

  Panel panel;
  panel.trials.reserve(2 * commands.size());
  for (std::size_t i = 0; i < commands.size(); ++i) {
    const auto& user = speakers[i % kSpeakers];
    const auto& other = speakers[(i + 1) % kSpeakers];
    panel.trials.push_back(sim.legitimate_trial(commands[i], user));
    panel.trials.push_back(sim.attack_trial(attacks[i % attacks.size()],
                                            commands[i], user, other));
  }
  panel.segmenters.reserve(panel.trials.size());
  for (std::size_t t = 0; t < panel.trials.size(); ++t) {
    panel.segmenters.emplace_back(panel.trials[t].alignment,
                                  v::eval::reference_sensitive_set());
    panel.rngs.push_back(score_rng.fork(t));
  }
  return panel;
}

std::uint64_t panel_digest(const Panel& panel) {
  Fnv h;
  for (std::size_t t = 0; t < panel.size(); ++t) {
    const auto& trial = panel.trials[t];
    h.u64(trial.is_attack ? 1 + static_cast<std::uint64_t>(trial.attack_type)
                          : 0);
    h.bytes(trial.command.data(), trial.command.size());
    for (const v::Signal* s : {&trial.va, &trial.wearable}) {
      h.u64(s->size());
      h.f64(s->sample_rate());
      for (double x : s->samples()) h.f64(x);
    }
    for (const auto& span : trial.alignment) {
      h.bytes(span.symbol.data(), span.symbol.size());
      h.u64(span.begin);
      h.u64(span.end);
    }
    v::Rng probe = panel.rngs[t];
    h.u64(probe());
  }
  return h.value();
}

}  // namespace perfbench
