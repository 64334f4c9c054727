// Tests for the interned reference state (core/reference.hpp): the
// precomputed windowed inverse std against a two-pass oracle under its
// stated bound, the O(1) degeneracy lookup against the scanning
// signal::degenerate_window, interning identity and lifetime (also under
// concurrent admission), and the reference-side TDEB against the generic
// similarity_scores on the DWM test corpora and at spectrogram-wide
// channel counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "core/dwm.hpp"
#include "core/nsync.hpp"
#include "core/reference.hpp"
#include "core/tde.hpp"
#include "engine/monitor_engine.hpp"
#include "signal/checkpoint.hpp"
#include "signal/rng.hpp"
#include "signal/stats.hpp"
#include "testing/dsp_oracles.hpp"

namespace nsync::core {
namespace {

using nsync::signal::Rng;
using nsync::signal::Signal;
using nsync::signal::SignalView;

constexpr double kEps = std::numeric_limits<double>::epsilon() / 2;  // 2^-53
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Smoothed noise per channel (the DWM tests' reference shape).
Signal smooth_noise(std::size_t frames, std::size_t channels,
                    std::uint64_t seed, double rate = 100.0) {
  Rng rng(seed);
  Signal s(frames, channels, rate);
  std::vector<double> lp(channels, 0.0);
  for (std::size_t n = 0; n < frames; ++n) {
    for (std::size_t c = 0; c < channels; ++c) {
      lp[c] += 0.35 * (rng.normal() - lp[c]);
      s(n, c) = lp[c];
    }
  }
  return s;
}

std::size_t pick(Rng& rng, std::size_t lo, std::size_t hi) {
  return static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
}

std::vector<double> channel(const Signal& s, std::size_t c) {
  std::vector<double> out(s.frames());
  SignalView(s).channel_into(c, out);
  return out;
}

/// Checks inv_std of every channel against the two-pass oracle under the
/// bound stated in reference.hpp: the variance behind entry s is within
/// 16 n_win^2 eps R^2 of the exact one, R the range of the channel over
/// frames [s - n_win + 1, s + n_win).  The oracle's own error (two-pass,
/// about 2 n_win eps var) is added.  Where the guard may round either way
/// (variance inside the bound of the degenerate threshold) only a zero on
/// one side is tolerated; windows holding a non-finite sample or a
/// constant run must be exactly 0.
void expect_inv_std_within_bound(const Signal& sig, std::size_t n_win) {
  const auto ref = ReferenceState::intern(sig, n_win);
  const double w = static_cast<double>(n_win);
  for (std::size_t c = 0; c < sig.channels(); ++c) {
    const std::vector<double> x = channel(sig, c);
    const std::vector<double> oracle =
        nsync::dsp::windowed_variance_two_pass(x, n_win);
    const auto inv = ref->inv_std(c);
    ASSERT_EQ(inv.size(), oracle.size());
    for (std::size_t s = 0; s < oracle.size(); ++s) {
      const auto win = std::span<const double>(x).subspan(s, n_win);
      const bool non_finite = std::any_of(
          win.begin(), win.end(), [](double v) { return !std::isfinite(v); });
      const bool constant = std::all_of(
          win.begin(), win.end(), [&](double v) { return v == win[0]; });
      if (non_finite || constant) {
        EXPECT_EQ(inv[s], 0.0) << "channel " << c << " offset " << s;
        continue;
      }
      const std::size_t lo = s + 1 >= n_win ? s + 1 - n_win : 0;
      const std::size_t hi = std::min(s + n_win, x.size());
      double mn = kInf, mx = -kInf;
      for (std::size_t k = lo; k < hi; ++k) {
        if (!std::isfinite(x[k])) continue;
        mn = std::min(mn, x[k]);
        mx = std::max(mx, x[k]);
      }
      const double range = mx - mn;
      const double bound =
          16.0 * w * w * kEps * range * range + 4.0 * w * kEps * oracle[s];
      if (inv[s] > 0.0) {
        const double var = 1.0 / (inv[s] * inv[s]);
        EXPECT_LE(std::abs(var - oracle[s]), bound + 4.0 * kEps * var)
            << "channel " << c << " offset " << s;
      } else {
        // The guard zeroed it: the exact variance must be at the noise
        // floor, 1e-12 of the anchored energy (at most n_win R^2).
        EXPECT_LE(oracle[s], bound + 1e-12 * std::max(1.0, w * range * range))
            << "channel " << c << " offset " << s;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Windowed inverse std vs the two-pass oracle

TEST(ReferenceState, InvStdMatchesTwoPassOracleOnNoise) {
  expect_inv_std_within_bound(smooth_noise(2000, 3, 11), 64);
  expect_inv_std_within_bound(smooth_noise(500, 2, 12), 7);
}

TEST(ReferenceState, InvStdSurvivesLargeDcOffset) {
  // A DC offset of 1e6 sigma: global centering must remove it before the
  // sliding sums see it, or the windowed variance drowns in cancellation.
  Signal s = smooth_noise(1500, 2, 13);
  for (std::size_t n = 0; n < s.frames(); ++n) {
    s(n, 0) += 1e6;
    s(n, 1) -= 3e6;
  }
  expect_inv_std_within_bound(s, 50);
  // The relative error is small, not merely bounded.
  const auto ref = ReferenceState::intern(s, 50);
  const auto oracle = nsync::dsp::windowed_variance_two_pass(channel(s, 0), 50);
  for (std::size_t k = 0; k < oracle.size(); ++k) {
    EXPECT_NEAR(ref->inv_std(0)[k] * std::sqrt(oracle[k]), 1.0, 1e-6) << k;
  }
}

TEST(ReferenceState, InvStdOnNearFlatAndFlatWindows) {
  // Loud noise, then an exactly flat stretch, then a near-flat one
  // (1e-9 ripple on an offset), then loud again: the flat windows are 0
  // exactly and the near-flat ones stay inside the bound even though the
  // loud samples share their blocks.
  Rng rng(14);
  Signal s(900, 2, 100.0);
  for (std::size_t n = 0; n < s.frames(); ++n) {
    for (std::size_t c = 0; c < 2; ++c) {
      double v = 5.0 * rng.normal();
      if (n >= 200 && n < 400) v = 3.25;
      if (n >= 400 && n < 600) v = 7.0 + 1e-9 * rng.normal();
      if (c == 1 && n >= 250 && n < 700) v = -1.0;  // flat on one channel
      s(n, c) = v;
    }
  }
  expect_inv_std_within_bound(s, 32);
  const auto ref = ReferenceState::intern(s, 32);
  EXPECT_EQ(ref->inv_std(0)[250], 0.0);  // inside the flat stretch
  EXPECT_EQ(ref->inv_std(1)[400], 0.0);
}

TEST(ReferenceState, InvStdKeepsNonFiniteSamplesLocal) {
  // One NaN and one +Inf: only the windows holding them are 0; the
  // channel mean ignores them, so every other window keeps its value.
  Signal s = smooth_noise(600, 2, 15);
  s(100, 0) = kNan;
  s(400, 1) = kInf;
  expect_inv_std_within_bound(s, 40);
  const auto ref = ReferenceState::intern(s, 40);
  EXPECT_EQ(ref->inv_std(0)[61], 0.0);   // window [61, 101) holds the NaN
  EXPECT_GT(ref->inv_std(0)[60], 0.0);   // [60, 100) does not
  EXPECT_GT(ref->inv_std(0)[101], 0.0);  // nor [101, 141)
  EXPECT_GT(ref->inv_std(1)[100], 0.0);
  EXPECT_EQ(ref->inv_std(1)[400], 0.0);
}

TEST(ReferenceState, InvStdAtMinimalReferenceLength) {
  // n_win + 1 frames: two offsets, the shortest reference DWM accepts.
  const Signal s = smooth_noise(65, 2, 16);
  expect_inv_std_within_bound(s, 64);
  EXPECT_EQ(ReferenceState::intern(s, 64)->inv_std(0).size(), 2u);
  EXPECT_NO_THROW(DwmSynchronizer(s, [] {
    DwmParams p;
    p.n_win = 64;
    p.n_hop = 32;
    p.n_ext = 8;
    p.n_sigma = 4.0;
    return p;
  }()));
  EXPECT_THROW((void)ReferenceState::intern(smooth_noise(10, 1, 1), 11),
               std::invalid_argument);
  EXPECT_THROW((void)ReferenceState::intern(smooth_noise(10, 1, 1), 0),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// O(1) degeneracy

TEST(ReferenceState, DegenerateMatchesScanOnRandomSlices) {
  // Random signals with NaN/+-Inf samples, flat runs on one channel and
  // on every channel at once; random slices of every short length.  The
  // lookup must give the scanning function's boolean exactly.
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t frames = 40 + pick(rng, 0, 160);
    const std::size_t chans = 1 + pick(rng, 0, 3);
    Signal s(frames, chans, 50.0);
    for (std::size_t n = 0; n < frames; ++n) {
      for (std::size_t c = 0; c < chans; ++c) {
        s(n, c) = static_cast<double>(pick(rng, 0, 3));  // many ties
      }
    }
    for (int run = 0; run < 6; ++run) {  // flat runs
      const std::size_t a = pick(rng, 0, frames - 1);
      const std::size_t len = pick(rng, 1, 30);
      const bool all = pick(rng, 0, 1) == 1;
      const std::size_t c0 = pick(rng, 0, chans - 1);
      for (std::size_t n = a; n < std::min(frames, a + len); ++n) {
        for (std::size_t c = 0; c < chans; ++c) {
          if (all || c == c0) s(n, c) = s(a, c);
        }
      }
    }
    for (int bad = 0; bad < 2; ++bad) {  // non-finite samples
      const double v = bad == 0 ? kNan : (pick(rng, 0, 1) ? kInf : -kInf);
      if (pick(rng, 0, 2) > 0) {
        s(pick(rng, 0, frames - 1), pick(rng, 0, chans - 1)) = v;
      }
    }
    const auto ref = ReferenceState::intern(s, 2);
    for (int q = 0; q < 400; ++q) {
      const std::size_t b = pick(rng, 0, frames);
      const std::size_t e = std::min(frames, b + pick(rng, 0, 40));
      ASSERT_EQ(ref->degenerate(b, e),
                nsync::signal::degenerate_window(SignalView(s).slice(b, e)))
          << "trial " << trial << " slice [" << b << ", " << e << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Interning

TEST(ReferenceIntern, EqualBytesShareOneObject) {
  const Signal s = smooth_noise(300, 2, 21);
  const auto a = ReferenceState::intern(s, 32);
  const auto b = ReferenceState::intern(Signal(s), 32);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->fingerprint(),
            nsync::signal::crc32(s.data(), s.frames() * s.channels() *
                                               sizeof(double)));
  // Synchronizers built from copies share it too.
  DwmParams p;
  p.n_win = 32;
  p.n_hop = 16;
  p.n_ext = 8;
  p.n_sigma = 4.0;
  const DwmSynchronizer x(s, p);
  const DwmSynchronizer y(s, p);
  EXPECT_EQ(&x.reference_state(), a.get());
  EXPECT_EQ(&y.reference_state(), a.get());
}

TEST(ReferenceIntern, DifferentSampleWindowOrRateDoNotShare) {
  const Signal s = smooth_noise(300, 2, 22);
  const auto base = ReferenceState::intern(s, 32);
  Signal one_sample = s;
  one_sample(123, 1) = std::nextafter(one_sample(123, 1), kInf);
  const Signal other_rate(SignalView(s.data(), s.frames(), s.channels(), 200.0)
                              .to_signal());
  EXPECT_NE(ReferenceState::intern(one_sample, 32).get(), base.get());
  EXPECT_NE(ReferenceState::intern(s, 33).get(), base.get());
  EXPECT_NE(ReferenceState::intern(other_rate, 32).get(), base.get());
  EXPECT_EQ(ReferenceState::intern(s, 32).get(), base.get());
}

TEST(ReferenceIntern, FreedWithItsLastSession) {
  const std::size_t before = ReferenceState::interned_count();
  std::weak_ptr<const ReferenceState> weak;
  {
    const Signal s = smooth_noise(400, 2, 23);
    DwmParams p;
    p.n_win = 32;
    p.n_hop = 16;
    p.n_ext = 8;
    p.n_sigma = 4.0;
    NsyncConfig cfg;
    cfg.dwm = p;
    engine::MonitorEngine eng;
    for (const char* name : {"a", "b"}) {
      engine::SessionSpec spec;
      spec.name = name;
      engine::ChannelSpec ch;
      ch.name = "ACC";
      ch.reference = s;
      ch.config = cfg;
      ch.thresholds = {1.0, 1.0, 1.0};
      spec.channels.push_back(std::move(ch));
      eng.add_session(std::move(spec));
    }
    weak = ReferenceState::intern(s, 32);
    EXPECT_EQ(ReferenceState::interned_count(), before + 1);  // one shared
    EXPECT_EQ(weak.use_count(), 2);  // held by the two sessions
    eng.evict_session(0);
    EXPECT_FALSE(weak.expired());
    eng.evict_session(1);
    EXPECT_TRUE(weak.expired());
  }
  EXPECT_EQ(ReferenceState::interned_count(), before);
}

TEST(ReferenceIntern, ConcurrentAdmissionsShareOneObject) {
  // Shard workers and admission threads intern concurrently; every
  // caller must get the one object, and dropping handles on other
  // threads must leave the table consistent (run under TSan in CI).
  const Signal s = smooth_noise(2000, 2, 24);
  const std::size_t before = ReferenceState::interned_count();
  constexpr int kThreads = 4;
  std::vector<const ReferenceState*> seen(kThreads, nullptr);
  std::vector<std::shared_ptr<const ReferenceState>> kept(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < 50; ++i) {
          auto h = ReferenceState::intern(s, 64 + static_cast<std::size_t>(i % 3));
          if (i % 3 == 0) {
            seen[static_cast<std::size_t>(t)] = h.get();
            kept[static_cast<std::size_t>(t)] = std::move(h);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(ReferenceState::interned_count(), before + 1);
  kept.clear();
  EXPECT_EQ(ReferenceState::interned_count(), before);
}

// ---------------------------------------------------------------------------
// Reference-side TDEB vs the generic path

/// The DWM tests' observed signals: the reference replayed with a
/// piecewise-constant shift.
Signal shifted_copy(const Signal& b,
                    const std::vector<std::pair<std::size_t, int>>& breaks,
                    std::size_t frames) {
  Signal a(frames, b.channels(), b.sample_rate());
  for (std::size_t n = 0; n < frames; ++n) {
    int shift = 0;
    for (const auto& [at, sh] : breaks) {
      if (n >= at) shift = sh;
    }
    const auto src = static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(
        static_cast<std::ptrdiff_t>(n) + shift, 0,
        static_cast<std::ptrdiff_t>(b.frames() - 1)));
    for (std::size_t c = 0; c < b.channels(); ++c) a(n, c) = b(src, c);
  }
  return a;
}

/// Scores of every extended slice [start, start + nx) the DWM could use
/// for the windows of `a`: the reference-side scores must stay within
/// `tol` of generic similarity_scores and the biased argmax must agree.
/// Returns the largest score difference seen.
double compare_with_generic(const Signal& b, const Signal& a,
                            std::size_t n_win, std::size_t n_hop,
                            std::size_t n_ext, double tol) {
  const auto ref = ReferenceState::intern(b, n_win);
  TdeWorkspace ws_ref, ws_gen;
  double worst = 0.0;
  for (std::size_t a0 = 0; a0 + n_win <= a.frames(); a0 += n_hop) {
    const SignalView y = SignalView(a).slice(a0, a0 + n_win);
    for (const std::ptrdiff_t lag : {-7, 0, 5}) {
      const std::ptrdiff_t want =
          static_cast<std::ptrdiff_t>(a0) - static_cast<std::ptrdiff_t>(n_ext) + lag;
      const SignalView x = SignalView(b).clamped_slice(
          want, want + static_cast<std::ptrdiff_t>(n_win + 2 * n_ext));
      if (x.frames() < n_win + 1) continue;
      const auto start = static_cast<std::size_t>(
          std::clamp<std::ptrdiff_t>(want, 0, static_cast<std::ptrdiff_t>(b.frames())));
      const auto got = similarity_scores_into(*ref, start, x.frames(), y, ws_ref);
      const std::vector<double> want_scores(got.begin(), got.end());
      const auto gen = similarity_scores_into(x, y, TdeOptions{}, ws_gen);
      EXPECT_EQ(want_scores.size(), gen.size());
      for (std::size_t n = 0; n < gen.size(); ++n) {
        worst = std::max(worst, std::abs(want_scores[n] - gen[n]));
        EXPECT_NEAR(want_scores[n], gen[n], tol) << "window " << a0 << " lag " << n;
      }
      const double center = static_cast<double>(n_ext);
      EXPECT_EQ(estimate_delay_biased(*ref, start, x.frames(), y, center,
                                      n_ext / 2.0, ws_ref),
                estimate_delay_biased(x, y, center, n_ext / 2.0, TdeOptions{},
                                      ws_gen))
          << "window " << a0;
    }
  }
  return worst;
}

// Scores are Pearson values in [-1, 1]; both paths compute the same
// quantity with different roundings (global vs slice centering, stored
// inverse std vs prefix-sum variance), so they agree to far better than
// this tolerance on well-conditioned data.
constexpr double kScoreTol = 1e-9;

TEST(ReferenceTde, ScoresMatchGenericOnDwmCorpora) {
  const Signal b = smooth_noise(3000, 2, 7);
  const std::vector<std::vector<std::pair<std::size_t, int>>> corpora = {
      {}, {{0, 5}}, {{0, -9}}, {{0, 0}, {1000, 12}}, {{0, 3}, {1500, -4}}};
  for (const auto& breaks : corpora) {
    const Signal a = shifted_copy(b, breaks, 2600);
    compare_with_generic(b, a, 64, 32, 24, kScoreTol);
  }
  // A single channel and a long lag range (the FFT numerator branch).
  const Signal b1 = smooth_noise(5000, 1, 8);
  compare_with_generic(b1, shifted_copy(b1, {{0, 6}}, 4000), 64, 128, 24,
                       kScoreTol);
  const Signal b3 = smooth_noise(12000, 3, 9);
  compare_with_generic(b3, shifted_copy(b3, {{0, -40}}, 9000), 800, 2000,
                       1200, kScoreTol);
}

TEST(ReferenceTde, DwmTrackingMatchesNaivePathOnCorpora) {
  // End to end: the streaming DWM on the reference-side path and on the
  // naive per-window Pearson path (use_fft = false) pick the same
  // displacement in every window of the DWM corpora.
  const Signal b = smooth_noise(3000, 2, 31);
  DwmParams p;
  p.n_win = 64;
  p.n_hop = 32;
  p.n_ext = 24;
  p.n_sigma = 12.0;
  p.eta = 0.2;
  DwmParams naive = p;
  naive.tde.use_fft = false;
  for (const auto& breaks :
       std::vector<std::vector<std::pair<std::size_t, int>>>{
           {{0, 7}}, {{0, 0}, {1200, 10}}, {{0, -5}, {800, 3}}}) {
    const Signal a = shifted_copy(b, breaks, 2700);
    const DwmResult fast = DwmSynchronizer::align(a, b, p);
    const DwmResult slow = DwmSynchronizer::align(a, b, naive);
    ASSERT_EQ(fast.h_disp.size(), slow.h_disp.size());
    EXPECT_EQ(fast.h_disp, slow.h_disp);
    EXPECT_EQ(fast.valid, slow.valid);
  }
}

TEST(ReferenceTde, SpectrogramWideChannelCountsTrackAShift) {
  // Hundreds of channels, as a spectrogram feeds DWM (one channel per
  // frequency bin): the reference side must size everything from the
  // channel count, and the scores still match the generic path.
  for (const std::size_t chans : {129u, 300u}) {
    const Signal b = smooth_noise(400, chans, 40 + chans, 80.0);
    const Signal a = shifted_copy(b, {{0, 3}}, 360);
    compare_with_generic(b, a, 16, 8, 6, kScoreTol);
    DwmParams p;
    p.n_win = 16;
    p.n_hop = 8;
    p.n_ext = 6;
    p.n_sigma = 3.0;
    p.eta = 0.2;
    DwmSynchronizer sync(b, p);
    sync.push(a);
    ASSERT_GT(sync.windows(), 10u);
    const auto& r = sync.result();
    for (std::size_t i = 2; i + 2 < r.h_disp.size(); ++i) {
      EXPECT_EQ(r.h_disp[i], 3.0) << "C=" << chans << " window " << i;
    }
  }
}

TEST(ReferenceTde, ShapeChecks) {
  const Signal b = smooth_noise(200, 2, 50);
  const auto ref = ReferenceState::intern(b, 32);
  TdeWorkspace ws;
  const Signal y = smooth_noise(32, 2, 51);
  const Signal y_short = smooth_noise(31, 2, 51);
  const Signal y_mono = smooth_noise(32, 1, 51);
  EXPECT_NO_THROW((void)similarity_scores_into(*ref, 0, 200, y, ws));
  EXPECT_THROW((void)similarity_scores_into(*ref, 0, 200, y_short, ws),
               std::invalid_argument);
  EXPECT_THROW((void)similarity_scores_into(*ref, 0, 200, y_mono, ws),
               std::invalid_argument);
  EXPECT_THROW((void)similarity_scores_into(*ref, 1, 200, y, ws),
               std::invalid_argument);
  EXPECT_THROW((void)similarity_scores_into(*ref, 190, 20, y, ws),
               std::invalid_argument);
  EXPECT_THROW((void)estimate_delay_biased(*ref, 0, 200, y, 5.0, 0.0, ws),
               std::invalid_argument);
}

}  // namespace
}  // namespace nsync::core
