#include "core/reference.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "dsp/simd/simd.hpp"
#include "signal/checkpoint.hpp"

namespace nsync::core {

using nsync::signal::Signal;

namespace {

struct Entry {
  const ReferenceState* raw;  // identifies the entry for its deleter
  std::weak_ptr<const ReferenceState> weak;
};

struct InternTable {
  std::mutex mu;
  std::unordered_multimap<std::uint64_t, Entry> map;
};

// Never destroyed: a handle held by a static object may be released after
// function-local statics are torn down.
InternTable& table() {
  static auto* t = new InternTable;
  return *t;
}

// 64-bit content hash: eight independent multiply lanes over the sample
// words (each step (h ^ w) * odd is a bijection of the lane state, so
// signals that differ in one word never collide), seeded with the shape
// and n_win and folded with a multiply-xorshift finalizer.
std::uint64_t content_key(const Signal& s, std::size_t n_win) {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ULL;
  std::uint64_t h[8] = {s.frames(), s.channels(), n_win,
                        std::bit_cast<std::uint64_t>(s.sample_rate()),
                        1, 2, 3, 4};
  const double* p = s.data();
  const std::size_t n = s.frames() * s.channels();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t l = 0; l < 8; ++l) {
      h[l] = (h[l] ^ std::bit_cast<std::uint64_t>(p[i + l])) * kMul;
    }
  }
  for (; i < n; ++i) {
    h[0] = (h[0] ^ std::bit_cast<std::uint64_t>(p[i])) * kMul;
  }
  std::uint64_t key = 0;
  for (const std::uint64_t v : h) {
    key = (key ^ v ^ (v >> 29)) * kMul;
    key ^= key >> 32;
  }
  return key;
}

bool same_content(const ReferenceState& r, const Signal& s,
                  std::size_t n_win) {
  return r.n_win() == n_win && r.frames() == s.frames() &&
         r.channels() == s.channels() &&
         r.signal().sample_rate() == s.sample_rate() &&
         std::memcmp(r.signal().data(), s.data(),
                     s.frames() * s.channels() * sizeof(double)) == 0;
}

std::shared_ptr<const ReferenceState> find_locked(InternTable& t,
                                                  std::uint64_t key,
                                                  const Signal& s,
                                                  std::size_t n_win) {
  const auto [lo, hi] = t.map.equal_range(key);
  for (auto it = lo; it != hi; ++it) {
    // An expired entry belongs to an object whose deleter is waiting for
    // the lock; it is never revived.
    if (auto sp = it->second.weak.lock(); sp && same_content(*sp, s, n_win)) {
      return sp;
    }
  }
  return nullptr;
}

// Mean a of x[0..n) and the sums of d = x - a and of d^2, each with four
// partial accumulators (the sums are latency-bound otherwise).
void anchor_sums(const double* x, std::size_t n, double& a, double& s1,
                 double& s2) {
  double p[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    for (std::size_t l = 0; l < 4; ++l) p[l] += x[k + l];
  }
  for (; k < n; ++k) p[0] += x[k];
  a = ((p[0] + p[1]) + (p[2] + p[3])) / static_cast<double>(n);
  double q1[4] = {0.0, 0.0, 0.0, 0.0};
  double q2[4] = {0.0, 0.0, 0.0, 0.0};
  for (k = 0; k + 4 <= n; k += 4) {
    for (std::size_t l = 0; l < 4; ++l) {
      const double d = x[k + l] - a;
      q1[l] += d;
      q2[l] += d * d;
    }
  }
  for (; k < n; ++k) {
    const double d = x[k] - a;
    q1[0] += d;
    q2[0] += d * d;
  }
  s1 = (q1[0] + q1[1]) + (q1[2] + q1[3]);
  s2 = (q2[0] + q2[1]) + (q2[2] + q2[3]);
}

// inv[s] for one channel: xc is the centered channel, raw its samples at
// stride `stride` (for the exact non-finite and constant-run tests).
// Sliding sums of deviations from an anchor (the mean of the block's
// first window), re-anchored every n_win offsets and after a window
// holding a non-finite sample; the error bound is stated in
// reference.hpp.
void fill_inv_std(const double* xc, const double* raw, std::size_t stride,
                  std::size_t frames, std::size_t n_win, double* inv) {
  const double w = static_cast<double>(n_win);
  std::size_t bad_end = 0;  // one past the last non-finite sample seen
  std::size_t run = 0;      // start of the constant run holding the newest
  bool anchored = false;
  std::size_t anchor = 0;
  double a = 0.0, s1 = 0.0, s2 = 0.0;
  for (std::size_t k = 0; k < frames; ++k) {
    // Sample k enters; the window it completes starts at s.
    if (!std::isfinite(raw[k * stride])) bad_end = k + 1;
    if (k > 0 && raw[k * stride] != raw[(k - 1) * stride]) run = k;
    if (k + 1 < n_win) continue;
    const std::size_t s = k + 1 - n_win;
    if (bad_end > s) {
      anchored = false;
      continue;
    }
    if (!anchored || s - anchor == n_win) {
      anchor_sums(xc + s, n_win, a, s1, s2);
      anchor = s;
      anchored = true;
    } else {
      const double d_out = xc[s - 1] - a;
      const double d_in = xc[k] - a;
      s1 += d_in - d_out;
      s2 += d_in * d_in - d_out * d_out;
    }
    if (run <= s) continue;  // constant window
    const double var = s2 - s1 * s1 / w;
    if (!nsync::dsp::simd::degenerate_variance(var, s2)) {
      inv[s] = 1.0 / std::sqrt(var);
    }
  }
}

}  // namespace

std::shared_ptr<const ReferenceState> ReferenceState::intern(
    Signal signal, std::size_t n_win) {
  if (n_win == 0 || n_win > signal.frames()) {
    throw std::invalid_argument(
        "ReferenceState: need 1 <= n_win <= reference frames");
  }
  if (signal.frames() >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("ReferenceState: reference too long");
  }
  const std::uint64_t key = content_key(signal, n_win);
  InternTable& t = table();
  {
    const std::scoped_lock lock(t.mu);
    if (auto hit = find_locked(t, key, signal, n_win)) return hit;
  }
  // Build outside the lock so admissions of other references proceed;
  // a concurrent builder of the same content is resolved below.
  std::shared_ptr<const ReferenceState> fresh(
      new ReferenceState(std::move(signal), n_win),
      [key](const ReferenceState* p) {
        {
          InternTable& tab = table();
          const std::scoped_lock lock(tab.mu);
          const auto [lo, hi] = tab.map.equal_range(key);
          for (auto it = lo; it != hi; ++it) {
            if (it->second.raw == p) {
              tab.map.erase(it);
              break;
            }
          }
        }
        delete p;
      });
  std::shared_ptr<const ReferenceState> winner;
  {
    const std::scoped_lock lock(t.mu);
    winner = find_locked(t, key, fresh->signal(), n_win);
    if (!winner) {
      t.map.emplace(key, Entry{fresh.get(), fresh});
      return fresh;
    }
  }
  return winner;  // `fresh` is released here, outside the lock
}

std::size_t ReferenceState::interned_count() {
  InternTable& t = table();
  const std::scoped_lock lock(t.mu);
  return t.map.size();
}

std::uint32_t ReferenceState::fingerprint() const {
  std::call_once(crc_once_, [this] {
    crc_ = nsync::signal::crc32(signal_.data(),
                                frames() * channels() * sizeof(double));
  });
  return crc_;
}

ReferenceState::ReferenceState(Signal signal, std::size_t n_win)
    : signal_(std::move(signal)), n_win_(n_win) {
  const std::size_t frames = signal_.frames();
  const std::size_t chans = signal_.channels();
  const double* x = signal_.data();

  // Centering offsets: the channel means, over the finite samples only
  // when a channel holds a non-finite one (one NaN must not poison the
  // windows that do not contain it).
  std::vector<double> mu(chans);
  nsync::dsp::simd::ops().channel_sums(x, frames, chans, mu.data());
  for (std::size_t c = 0; c < chans; ++c) {
    if (std::isfinite(mu[c])) {
      mu[c] /= static_cast<double>(frames);
      continue;
    }
    double sum = 0.0;
    std::size_t finite = 0;
    for (std::size_t k = 0; k < frames; ++k) {
      if (std::isfinite(x[k * chans + c])) {
        sum += x[k * chans + c];
        ++finite;
      }
    }
    mu[c] = finite > 0 ? sum / static_cast<double>(finite) : 0.0;
  }

  // One forward pass: the centered channels and the degeneracy tables,
  // with the comparisons signal::degenerate_window makes (!isfinite, and
  // != between samples; consecutive equality is transitive for the
  // finite samples that matter, so "no change since b" is "equal to b").
  centered_.resize(frames * chans);
  bad_before_.resize(frames + 1);
  run_start_.resize(frames);
  std::vector<std::uint32_t> chan_run(chans, 0);
  bad_before_[0] = 0;
  for (std::size_t k = 0; k < frames; ++k) {
    const double* row = x + k * chans;
    bool bad = false;
    std::uint32_t start = 0;
    for (std::size_t c = 0; c < chans; ++c) {
      centered_[c * frames + k] = row[c] - mu[c];
      bad = bad || !std::isfinite(row[c]);
      if (k > 0 && row[c] != (row - chans)[c]) {
        chan_run[c] = static_cast<std::uint32_t>(k);
      }
      start = std::max(start, chan_run[c]);
    }
    bad_before_[k + 1] = bad_before_[k] + (bad ? 1 : 0);
    run_start_[k] = start;
  }

  const std::size_t offsets = frames - n_win + 1;
  inv_std_.assign(offsets * chans, 0.0);
  for (std::size_t c = 0; c < chans; ++c) {
    fill_inv_std(centered_.data() + c * frames, x + c, chans, frames, n_win,
                 inv_std_.data() + c * offsets);
  }
}

}  // namespace nsync::core
