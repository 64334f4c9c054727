#include "inputs.hpp"

#include <algorithm>
#include <cmath>

#include "eval/dataset.hpp"
#include "eval/setup.hpp"
#include "sensors/side_channel.hpp"
#include "signal/checkpoint.hpp"
#include "signal/rng.hpp"

namespace fleetbench {

using nsync::signal::Rng;
using nsync::signal::Signal;

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kCompactRate = 100.0;

// Smoothed noise plus a slow chirp per dimension: every window has a
// distinct temporal signature, so DWM locks on benign streams and the
// measured work is the detector's, not a tracker losing lock.
Signal compact_reference(std::size_t frames, Rng& rng) {
  Signal s(frames, 2, kCompactRate);
  const double f0 = rng.uniform(0.3, 0.6);
  const double f1 = rng.uniform(0.3, 0.6);
  double lp0 = 0.0, lp1 = 0.0;
  for (std::size_t n = 0; n < frames; ++n) {
    const double t = static_cast<double>(n) / kCompactRate;
    lp0 += 0.35 * (rng.normal() - lp0);
    lp1 += 0.35 * (rng.normal() - lp1);
    s(n, 0) = lp0 + 0.7 * std::sin(2.0 * kPi * (f0 + 0.010 * t) * t);
    s(n, 1) = lp1 + 0.7 * std::cos(2.0 * kPi * (f1 + 0.008 * t) * t);
  }
  return s;
}

// The reference replayed with a slowly wandering clock and sensor noise.
// An attacked print swaps a fifth of the print for foreign content (what
// a void or a substituted toolpath looks like to the comparator).
Signal compact_observation(const Signal& ref, Rng& rng, bool attacked) {
  Signal a = Signal::empty(ref.channels(), ref.sample_rate());
  a.reserve_frames(ref.frames() + ref.frames() / 16);
  const double attack_lo = 0.45 * static_cast<double>(ref.frames());
  const double attack_hi = 0.65 * static_cast<double>(ref.frames());
  double src = 0.0;
  double lp = 0.0;
  std::vector<double> row(ref.channels());
  while (src < static_cast<double>(ref.frames() - 1)) {
    const auto i0 = static_cast<std::size_t>(src);
    const double frac = src - static_cast<double>(i0);
    const std::size_t i1 = std::min(i0 + 1, ref.frames() - 1);
    const bool foreign = attacked && src >= attack_lo && src < attack_hi;
    lp += 0.35 * (rng.normal() - lp);
    for (std::size_t c = 0; c < ref.channels(); ++c) {
      const double base = (1.0 - frac) * ref(i0, c) + frac * ref(i1, c);
      row[c] = (foreign ? lp : base) + rng.normal(0.0, 0.01);
    }
    a.append_frame(row);
    src += 1.0 + rng.normal(0.0, 0.002);
  }
  return a;
}

nsync::core::NsyncConfig compact_config() {
  nsync::core::NsyncConfig cfg;
  cfg.sync = nsync::core::SyncMethod::kDwm;
  cfg.dwm.n_win = 64;
  cfg.dwm.n_hop = 32;
  cfg.dwm.n_ext = 24;
  cfg.dwm.n_sigma = 12.0;
  cfg.dwm.eta = 0.2;
  return cfg;
}

void crc_signal(std::uint32_t& acc, const Signal& s) {
  const std::uint32_t c =
      nsync::signal::crc32(s.data(), s.frames() * s.channels() * sizeof(double));
  acc = acc * 0x01000193u ^ c;
}

}  // namespace

std::uint32_t Inputs::digest() const {
  std::uint32_t acc = 0x811C9DC5u;
  for (const Job& j : jobs) {
    for (const ChannelJob& c : j.channels) {
      crc_signal(acc, c.reference);
      for (const Signal& t : c.train) crc_signal(acc, t);
    }
  }
  for (const Print& p : prints) {
    for (const Signal& s : p.streams) crc_signal(acc, s);
  }
  return acc;
}

Calibration calibrate(const Inputs& in) {
  Calibration cal;
  for (const Job& j : in.jobs) {
    std::vector<nsync::core::Thresholds> per_channel;
    for (const ChannelJob& c : j.channels) {
      nsync::core::NsyncIds ids(c.reference, c.config);
      ids.fit(c.train);
      per_channel.push_back(ids.thresholds());
    }
    cal.push_back(std::move(per_channel));
  }
  return cal;
}

nsync::engine::SessionSpec make_spec(const Inputs& in, const Calibration& cal,
                                     std::size_t p, const std::string& name) {
  const Print& print = in.prints[p];
  const Job& job = in.jobs[print.job];
  nsync::engine::SessionSpec spec;
  spec.name = name;
  spec.rule = nsync::core::FusionRule::kAny;
  for (std::size_t c = 0; c < job.channels.size(); ++c) {
    nsync::engine::ChannelSpec ch;
    ch.name = job.channels[c].name;
    ch.reference = job.channels[c].reference;
    ch.config = job.channels[c].config;
    ch.thresholds = cal[print.job][c];
    spec.channels.push_back(std::move(ch));
  }
  return spec;
}

Inputs compact_inputs(std::uint64_t seed, std::size_t jobs,
                      std::size_t prints_per_job, std::size_t frames) {
  constexpr std::size_t kTrain = 4;
  Rng root(seed);
  Inputs in;
  for (std::size_t j = 0; j < jobs; ++j) {
    Job job;
    for (const char* name : {"ACC", "AUD"}) {
      ChannelJob c;
      c.name = name;
      Rng rng = root.fork();
      c.reference = compact_reference(frames, rng);
      c.config = compact_config();
      for (std::size_t t = 0; t < kTrain; ++t) {
        c.train.push_back(compact_observation(c.reference, rng, false));
      }
      job.channels.push_back(std::move(c));
    }
    in.jobs.push_back(std::move(job));
  }
  for (std::size_t j = 0; j < jobs; ++j) {
    for (std::size_t v = 0; v < prints_per_job; ++v) {
      Print p;
      p.job = j;
      p.malicious = (j * prints_per_job + v) % 8 == 5;
      p.label = p.malicious ? "Substitution" : "Benign";
      for (const ChannelJob& c : in.jobs[j].channels) {
        Rng rng = root.fork();
        p.streams.push_back(compact_observation(c.reference, rng, p.malicious));
      }
      in.prints.push_back(std::move(p));
    }
  }
  return in;
}

Inputs rm3_inputs(std::uint64_t seed) {
  using nsync::sensors::SideChannel;
  nsync::eval::EvalScale scale = nsync::eval::EvalScale::tiny();
  scale.seed = seed;
  scale.train_count = 4;
  scale.benign_test_count = 7;
  scale.malicious_per_attack = 1;
  const std::vector<SideChannel> channels = {SideChannel::kAcc,
                                             SideChannel::kAud};
  const nsync::eval::Dataset ds(nsync::eval::PrinterKind::kRm3, scale,
                                channels);
  Inputs in;
  Job job;
  for (const SideChannel ch : channels) {
    ChannelJob c;
    c.name = nsync::sensors::side_channel_name(ch);
    c.reference = ds.reference().raw.at(ch);
    c.config.sync = nsync::core::SyncMethod::kDwm;
    c.config.dwm = nsync::eval::dwm_params_for(nsync::eval::PrinterKind::kRm3,
                                               c.reference.sample_rate());
    for (const auto& t : ds.train()) c.train.push_back(t.raw.at(ch));
    job.channels.push_back(std::move(c));
  }
  in.jobs.push_back(std::move(job));
  for (const auto& t : ds.test()) {
    Print p;
    p.job = 0;
    p.malicious = t.malicious;
    p.label = t.label;
    for (const SideChannel ch : channels) p.streams.push_back(t.raw.at(ch));
    in.prints.push_back(std::move(p));
  }
  return in;
}

}  // namespace fleetbench
