#include "core/tde.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/simd/simd.hpp"
#include "signal/stats.hpp"

namespace nsync::core {

using nsync::signal::SignalView;

namespace simd = nsync::dsp::simd;

namespace {

void check_shapes(const SignalView& x, const SignalView& y) {
  if (x.channels() != y.channels()) {
    throw std::invalid_argument("similarity_scores: channel mismatch");
  }
  if (y.frames() < 2 || x.frames() < y.frames()) {
    throw std::invalid_argument(
        "similarity_scores: need x.frames() >= y.frames() >= 2");
  }
}

/// Channel c of `s` as a contiguous span: single-channel signals are
/// already contiguous and need no copy; otherwise a strided copy lands in
/// `buf` (resized, no allocation once at capacity).
std::span<const double> channel_span(const SignalView& s, std::size_t c,
                                     std::vector<double>& buf) {
  if (s.channels() == 1) {
    return {s.data(), s.frames()};
  }
  buf.resize(s.frames());
  s.channel_into(c, buf);
  return buf;
}

// FFT-branch numerator for every channel at once: the lane-interleaved,
// zero-padded x_pad and y_pad (centered y time-reversed) go through one
// BatchedRfftPlan pass each, and the correlation lands back in x_pad
// (lag ny - 1 + n at row ny - 1 + n).
void fft_numerator(std::size_t m, std::size_t C, TdeWorkspace& ws) {
  const auto& k = simd::ops();
  const std::size_t bins = m / 2 + 1;
  if (!ws.batched.plan || ws.batched.plan->size() != m ||
      ws.batched.plan->lanes() != C) {
    ws.batched.plan = std::make_unique<nsync::dsp::BatchedRfftPlan>(m, C);
  }
  ws.spec_x_re.resize(bins * C);
  ws.spec_x_im.resize(bins * C);
  ws.spec_y_re.resize(bins * C);
  ws.spec_y_im.resize(bins * C);
  ws.batched.plan->forward_interleaved(ws.x_pad.data(), ws.spec_x_re.data(),
                                       ws.spec_x_im.data());
  ws.batched.plan->forward_interleaved(ws.y_pad.data(), ws.spec_y_re.data(),
                                       ws.spec_y_im.data());
  k.cmul_split_inplace(ws.spec_x_re.data(), ws.spec_x_im.data(),
                       ws.spec_y_re.data(), ws.spec_y_im.data(), bins * C);
  ws.batched.plan->inverse_interleaved(ws.spec_x_re.data(),
                                       ws.spec_x_im.data(), ws.x_pad.data());
}

// All channels of the sliding correlation in one pass.
//
// This mirrors sliding_pearson_fft_into channel by channel — same
// centering, same numerator rule (dsp::direct_xcorr_wins), same
// prefix-sum normalization, same degenerate-template early-out — but
// runs every pre/post pass as a row-wise dispatched kernel and, on the
// FFT branch, every transform as one lane-interleaved BatchedRfftPlan
// pass.  The per-channel operation sequence is identical to the
// sequential scalar path (the row kernels accumulate each channel's
// reductions sequentially across frames, and the direct numerator is
// the same kernel on the same centered samples), so the result is
// bitwise equal to looping sliding_pearson_fft_into under the scalar
// backend — which is what the per-channel loop used to produce.
void similarity_scores_batched(const SignalView& x, const SignalView& y,
                               TdeWorkspace& ws) {
  const auto& k = simd::ops();
  const std::size_t C = x.channels();
  const std::size_t nx = x.frames();
  const std::size_t ny = y.frames();
  const std::size_t n_out = nx - ny + 1;
  const bool direct = nsync::dsp::direct_xcorr_wins(nx, ny);

  // Per-channel means (sequential per channel, like signal::mean on an
  // extracted channel under the scalar backend).
  ws.mu_x.resize(C);
  ws.mu_y.resize(C);
  k.channel_sums(x.data(), nx, C, ws.mu_x.data());
  k.channel_sums(y.data(), ny, C, ws.mu_y.data());
  for (auto& v : ws.mu_x) v /= static_cast<double>(nx);
  for (auto& v : ws.mu_y) v /= static_cast<double>(ny);

  // Centered x; centered, time-reversed y with the per-channel template
  // energy fused into the reversal pass.  The FFT branch zero-pads both
  // to the valid-lag transform size; the direct branch needs no padding.
  const std::size_t m = direct ? 0 : nsync::dsp::valid_lag_fft_size(nx);
  if (direct) {
    ws.x_pad.resize(nx * C);
    ws.y_pad.resize(ny * C);
  } else {
    ws.x_pad.assign(m * C, 0.0);
    ws.y_pad.assign(m * C, 0.0);
  }
  k.center_rows(x.data(), nx, C, ws.mu_x.data(), ws.x_pad.data());
  ws.y_energy.assign(C, 0.0);
  k.center_rows_reversed_energy(y.data(), ny, C, ws.mu_y.data(),
                                ws.y_pad.data(), ws.y_energy.data());

  // Windowed-variance prefix sums must read the centered x rows before
  // the inverse transform reuses x_pad as its output buffer.
  ws.ps.resize((nx + 1) * C);
  ws.ps2.resize((nx + 1) * C);
  k.prefix_sums_rows(ws.x_pad.data(), ws.ps.data(), ws.ps2.data(), nx, C);

  // Numerator for window n of channel c: num[n * C + c].
  const double* num = nullptr;
  if (direct) {
    ws.x_chan.resize(nx);
    ws.y_chan.resize(ny);
    ws.chan_scores.resize(n_out);
    ws.num.resize(n_out * C);
    for (std::size_t c = 0; c < C; ++c) {
      for (std::size_t i = 0; i < nx; ++i) ws.x_chan[i] = ws.x_pad[i * C + c];
      for (std::size_t i = 0; i < ny; ++i) {
        ws.y_chan[i] = ws.y_pad[(ny - 1 - i) * C + c];
      }
      // chan_scores stages this channel's numerator until the scatter.
      k.xcorr_valid_direct(ws.x_chan.data(), ws.y_chan.data(), ny,
                           ws.chan_scores.data(), n_out);
      for (std::size_t n = 0; n < n_out; ++n) {
        ws.num[n * C + c] = ws.chan_scores[n];
      }
    }
    num = ws.num.data();
  } else {
    fft_numerator(m, C, ws);
    num = ws.x_pad.data() + (ny - 1) * C;
  }

  ws.scores.assign(n_out, 0.0);
  ws.chan_scores.resize(n_out);
  for (std::size_t c = 0; c < C; ++c) {
    const double y_norm = std::sqrt(ws.y_energy[c]);
    if (!(y_norm > 0.0) || !std::isfinite(y_norm)) {
      // Degenerate template: the channel scores 0 everywhere, and the
      // zero array is still accumulated so the signed-zero arithmetic
      // matches the sequential path exactly.
      std::fill(ws.chan_scores.begin(), ws.chan_scores.end(), 0.0);
    } else {
      k.normalize_windows_strided(ws.ps.data() + c, ws.ps2.data() + c, C, ny,
                                  y_norm, num + c, ws.chan_scores.data(),
                                  n_out);
    }
    k.add_arrays(ws.scores.data(), ws.chan_scores.data(), n_out);
  }
  k.scale(ws.scores.data(), 1.0 / static_cast<double>(C), n_out);
}

// Fused TDEB epilogue: clamp + Gaussian bias + argmax through the
// dispatched kernel.
//
// Multiplying a negative score by a small Gaussian weight would *raise*
// it toward zero, perversely rewarding far-from-center anti-correlated
// placements.  A negative correlation is never a candidate match, so
// the kernel clamps to zero before applying the bias.  The per-element
// arithmetic (max, then exp-weight multiply) matches the allocating
// bias_scores path exactly, and the argmax keeps std::max_element's
// first-occurrence semantics, so the result is bitwise identical.
//
// The exp() weights are the expensive part and depend only on
// (center, sigma, n_out), so they are cached in the workspace and
// reused verbatim while those stay unchanged.  The DWM's center is
// n_ext on every window whose extended reference slice is not clamped
// at either end of the reference, so its steady state hits the cache;
// a clamped window changes center or n_out and recomputes.
std::size_t biased_argmax(std::span<const double> scores, double center,
                          double sigma_samples, TdeWorkspace& ws) {
  const std::size_t n_out = scores.size();
  if (ws.bias_w.size() != n_out || ws.bias_center != center ||
      ws.bias_sigma != sigma_samples) {
    ws.bias_w.resize(n_out);
    for (std::size_t j = 0; j < n_out; ++j) {
      const double d = (static_cast<double>(j) - center) / sigma_samples;
      ws.bias_w[j] = std::exp(-0.5 * d * d);
    }
    ws.bias_center = center;
    ws.bias_sigma = sigma_samples;
  }
  return simd::ops().clamp_weight_argmax(scores.data(), ws.bias_w.data(),
                                         n_out);
}

void check_sigma(double sigma_samples) {
  if (sigma_samples <= 0.0) {
    throw std::invalid_argument("bias_scores: sigma must be positive");
  }
}

}  // namespace

// The observed side runs the same kernels as similarity_scores_batched;
// the reference side is read from the interned state.
std::span<const double> similarity_scores_into(const ReferenceState& x,
                                               std::size_t x_start,
                                               std::size_t nx,
                                               const SignalView& y,
                                               TdeWorkspace& ws) {
  if (y.channels() != x.channels()) {
    throw std::invalid_argument("similarity_scores: channel mismatch");
  }
  if (y.frames() != x.n_win() || y.frames() < 2 || nx < y.frames() ||
      x_start > x.frames() || nx > x.frames() - x_start) {
    throw std::invalid_argument(
        "similarity_scores: need 2 <= y.frames() == n_win <= nx and the "
        "slice inside the reference");
  }
  const auto& k = simd::ops();
  const std::size_t C = x.channels();
  const std::size_t ny = y.frames();
  const std::size_t n_out = nx - ny + 1;
  const bool direct = nsync::dsp::direct_xcorr_wins(nx, ny);

  ws.mu_y.resize(C);
  k.channel_sums(y.data(), ny, C, ws.mu_y.data());
  for (auto& v : ws.mu_y) v /= static_cast<double>(ny);
  const std::size_t m = direct ? 0 : nsync::dsp::valid_lag_fft_size(nx);
  if (direct) {
    ws.y_pad.resize(ny * C);
  } else {
    ws.y_pad.assign(m * C, 0.0);
  }
  ws.y_energy.assign(C, 0.0);
  k.center_rows_reversed_energy(y.data(), ny, C, ws.mu_y.data(),
                                ws.y_pad.data(), ws.y_energy.data());

  // Numerator of window n, channel c: num[n * n_step + c * c_step].
  const double* num = nullptr;
  std::size_t n_step = 0;
  std::size_t c_step = 0;
  if (direct) {
    ws.y_chan.resize(ny);
    ws.num.resize(n_out * C);
    for (std::size_t c = 0; c < C; ++c) {
      for (std::size_t i = 0; i < ny; ++i) {
        ws.y_chan[i] = ws.y_pad[(ny - 1 - i) * C + c];
      }
      k.xcorr_valid_direct(x.centered(c).data() + x_start, ws.y_chan.data(),
                           ny, ws.num.data() + c * n_out, n_out);
    }
    num = ws.num.data();
    n_step = 1;
    c_step = n_out;
  } else {
    ws.x_pad.assign(m * C, 0.0);
    for (std::size_t c = 0; c < C; ++c) {
      const double* xc = x.centered(c).data() + x_start;
      for (std::size_t i = 0; i < nx; ++i) ws.x_pad[i * C + c] = xc[i];
    }
    fft_numerator(m, C, ws);
    num = ws.x_pad.data() + (ny - 1) * C;
    n_step = C;
    c_step = 1;
  }

  // Pearson per placement: numerator * inv_std(x window) / ||y||.  The
  // stored inverse std is 0 on degenerate windows, which score 0.
  ws.scores.assign(n_out, 0.0);
  for (std::size_t c = 0; c < C; ++c) {
    const double y_norm = std::sqrt(ws.y_energy[c]);
    if (!(y_norm > 0.0) || !std::isfinite(y_norm)) continue;  // scores 0
    const double inv_y = 1.0 / y_norm;
    const double* inv_x = x.inv_std(c).data() + x_start;
    const double* num_c = num + c * c_step;
    for (std::size_t n = 0; n < n_out; ++n) {
      const double r = num_c[n * n_step] * inv_x[n] * inv_y;
      ws.scores[n] += std::isfinite(r) ? r : 0.0;
    }
  }
  k.scale(ws.scores.data(), 1.0 / static_cast<double>(C), n_out);
  return ws.scores;
}

std::size_t estimate_delay_biased(const ReferenceState& x,
                                  std::size_t x_start, std::size_t nx,
                                  const SignalView& y, double center,
                                  double sigma_samples, TdeWorkspace& ws) {
  check_sigma(sigma_samples);
  return biased_argmax(similarity_scores_into(x, x_start, nx, y, ws), center,
                       sigma_samples, ws);
}

std::span<const double> similarity_scores_into(const SignalView& x,
                                               const SignalView& y,
                                               const TdeOptions& opts,
                                               TdeWorkspace& ws) {
  check_shapes(x, y);
  if (opts.use_fft && x.channels() > 1) {
    similarity_scores_batched(x, y, ws);
    return ws.scores;
  }
  const std::size_t n_out = x.frames() - y.frames() + 1;
  ws.scores.assign(n_out, 0.0);
  ws.chan_scores.resize(n_out);
  for (std::size_t c = 0; c < x.channels(); ++c) {
    const auto xc = channel_span(x, c, ws.x_chan);
    const auto yc = channel_span(y, c, ws.y_chan);
    if (opts.use_fft) {
      nsync::dsp::sliding_pearson_fft_into(xc, yc, ws.chan_scores, ws.pearson);
    } else {
      nsync::dsp::sliding_pearson_naive_into(xc, yc, ws.chan_scores);
    }
    for (std::size_t n = 0; n < n_out; ++n) ws.scores[n] += ws.chan_scores[n];
  }
  const double inv_c = 1.0 / static_cast<double>(x.channels());
  for (auto& v : ws.scores) v *= inv_c;
  return ws.scores;
}

std::vector<double> similarity_scores(const SignalView& x, const SignalView& y,
                                      const TdeOptions& opts) {
  thread_local TdeWorkspace ws;
  const auto scores = similarity_scores_into(x, y, opts, ws);
  return {scores.begin(), scores.end()};
}

std::size_t estimate_delay(const SignalView& x, const SignalView& y,
                           const TdeOptions& opts) {
  thread_local TdeWorkspace ws;
  return nsync::signal::argmax(similarity_scores_into(x, y, opts, ws));
}

std::vector<double> bias_scores(std::vector<double> scores, double center,
                                double sigma_samples) {
  check_sigma(sigma_samples);
  for (std::size_t j = 0; j < scores.size(); ++j) {
    const double d = (static_cast<double>(j) - center) / sigma_samples;
    scores[j] *= std::exp(-0.5 * d * d);
  }
  return scores;
}

std::size_t estimate_delay_biased(const SignalView& x, const SignalView& y,
                                  double center, double sigma_samples,
                                  const TdeOptions& opts) {
  thread_local TdeWorkspace ws;
  return estimate_delay_biased(x, y, center, sigma_samples, opts, ws);
}

std::size_t estimate_delay_biased(const SignalView& x, const SignalView& y,
                                  double center, double sigma_samples,
                                  const TdeOptions& opts, TdeWorkspace& ws) {
  check_sigma(sigma_samples);
  return biased_argmax(similarity_scores_into(x, y, opts, ws), center,
                       sigma_samples, ws);
}

}  // namespace nsync::core
