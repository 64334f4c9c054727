#include "core/nsync.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "signal/checkpoint.hpp"
#include "signal/stats.hpp"

namespace nsync::core {

using nsync::signal::Signal;
using nsync::signal::SignalView;

std::string sync_method_name(SyncMethod m) {
  switch (m) {
    case SyncMethod::kDwm: return "DWM";
    case SyncMethod::kDtw: return "DTW";
  }
  return "unknown";
}

NsyncIds::NsyncIds(Signal reference, NsyncConfig config) : config_(config) {
  if (reference.frames() == 0) {
    throw std::invalid_argument("NsyncIds: empty reference signal");
  }
  if (config_.sync == SyncMethod::kDtw && config_.dtw_radius == 0) {
    throw std::invalid_argument("NsyncIds: dtw_radius must be >= 1");
  }
  if (config_.sync == SyncMethod::kDwm) {
    config_.dwm.validate();
    if (reference.frames() < config_.dwm.n_win + 1) {
      throw std::invalid_argument(
          "NsyncIds: reference shorter than one DWM window");
    }
    // Interned once here, so analyze() reuses the shared reference state
    // instead of re-interning a copy per observed signal.
    dwm_ref_ = ReferenceState::intern(std::move(reference), config_.dwm.n_win);
  } else {
    reference_ = std::move(reference);
  }
}

Analysis NsyncIds::analyze(const SignalView& observed) const {
  Analysis a;
  if (config_.sync == SyncMethod::kDwm) {
    DwmSynchronizer sync(dwm_ref_, config_.dwm);
    sync.push(observed);
    const DwmResult& r = sync.result();
    a.h_disp = r.h_disp;
    // Batch analysis is literally a replay of the streaming DetectionCore
    // over the synchronizer's windows: one implementation of scoring,
    // masking, carry-forward and feature accumulation for both paths.
    // The core re-checks each matched window pair and ANDs its verdict
    // into the synchronizer's mask, so a.valid reflects both stages.
    DetectionCore core(config_.dwm, config_.metric, config_.filter_window);
    core.reserve(r.h_disp.size());
    for (std::size_t i = 0; i < r.h_disp.size(); ++i) {
      const std::size_t a_start = i * config_.dwm.n_hop;
      const SignalView a_win =
          observed.slice(a_start, a_start + config_.dwm.n_win);
      core.step(r.h_disp[i], r.valid.empty() || r.valid[i] != 0, a_win,
                *dwm_ref_);
    }
    a.v_dist = core.v_dist();
    a.valid = core.valid();
    a.features = core.features();
  } else {
    const DtwResult r =
        fast_dtw(observed, reference_, config_.dtw_radius, config_.metric);
    a.h_disp = h_disp_from_path(r.path, observed.frames());
    a.v_dist = vertical_distances_dtw(observed, reference_, r.path,
                                      config_.metric);
    a.features = compute_features(a.h_disp, a.v_dist, config_.filter_window);
  }
  return a;
}

void NsyncIds::fit(std::span<const Signal> benign) {
  if (benign.empty()) {
    throw std::invalid_argument("NsyncIds::fit: no training signals");
  }
  std::vector<Analysis> analyses;
  analyses.reserve(benign.size());
  for (const auto& s : benign) {
    analyses.push_back(analyze(s));
  }
  fit_from_analyses(analyses);
}

void NsyncIds::fit_from_analyses(std::span<const Analysis> analyses) {
  if (analyses.empty()) {
    throw std::invalid_argument("NsyncIds::fit_from_analyses: empty input");
  }
  std::vector<FeatureMaxima> maxima;
  maxima.reserve(analyses.size());
  for (const auto& a : analyses) {
    maxima.push_back(feature_maxima(a.features));
  }
  thresholds_ = learn_thresholds(maxima, config_.r);
  trained_ = true;
}

Detection NsyncIds::detect(const SignalView& observed) const {
  return detect(analyze(observed));
}

Detection NsyncIds::detect(const Analysis& analysis) const {
  if (!trained_) {
    throw std::logic_error("NsyncIds::detect: call fit() first");
  }
  return discriminate(analysis.features, thresholds_);
}

const Thresholds& NsyncIds::thresholds() const {
  if (!trained_) {
    throw std::logic_error("NsyncIds::thresholds: call fit() first");
  }
  return thresholds_;
}

RealtimeMonitor::RealtimeMonitor(Signal reference, NsyncConfig config,
                                 Thresholds thresholds)
    : sync_(std::move(reference), config.dwm),
      config_(config),
      core_(config.dwm, config.metric, config.filter_window),
      health_(config.health) {
  if (config.sync != SyncMethod::kDwm) {
    throw std::invalid_argument(
        "RealtimeMonitor: only DWM supports real-time operation");
  }
  core_.set_thresholds(thresholds);
}

std::size_t RealtimeMonitor::push(const SignalView& frames) {
  const std::size_t before = sync_.windows();
  sync_.push(frames);
  const std::size_t after = sync_.windows();

  // The synchronizer's ring buffer retains every window completed by the
  // current push, so the logical-index views are always in range here.
  const auto& r = sync_.result();
  const auto& a = sync_.observed();
  for (std::size_t i = before; i < after; ++i) {
    const std::size_t a_start = i * config_.dwm.n_hop;
    const SignalView a_win = a.view(a_start, a_start + config_.dwm.n_win);
    const bool ok = core_.step(r.h_disp[i], r.valid.empty() || r.valid[i] != 0,
                               a_win, sync_.reference_state());
    health_.observe(ok);
    // Benign-baseline accumulation, gated per window: only a valid window
    // on a healthy channel with no latched intrusion may raise the benign
    // feature maxima.  Evaluated inside the per-window loop (not per
    // push), so the accumulated maxima are invariant to feed chunking and
    // drain/batch boundaries — a precondition for bitwise-deterministic
    // checkpoint replay through the sharded fleet.
    if (ok && health_.state() == ChannelHealth::kHealthy &&
        !core_.detection().intrusion) {
      const DetectionFeatures& f = core_.features();
      benign_max_.c_max = std::max(benign_max_.c_max, f.c_disp[i]);
      benign_max_.h_max = std::max(benign_max_.h_max, f.h_dist_f[i]);
      benign_max_.v_max = std::max(benign_max_.v_max, f.v_dist_f[i]);
      ++benign_windows_;
    }
  }
  return after - before;
}

void RealtimeMonitor::reserve_windows(std::size_t n_windows) {
  sync_.reserve_windows(n_windows);
  core_.reserve(n_windows);
}

void RealtimeMonitor::save_state(nsync::signal::ByteWriter& w) const {
  sync_.save_state(w);
  core_.save_state(w);
  health_.save_state(w);
  w.pod<double>(benign_max_.c_max);
  w.pod<double>(benign_max_.h_max);
  w.pod<double>(benign_max_.v_max);
  w.pod<std::uint64_t>(benign_windows_);
}

void RealtimeMonitor::restore_state(nsync::signal::ByteReader& r) {
  // Restore into copies so a failure partway through (e.g. the core
  // section is corrupt after the synchronizer already parsed) leaves this
  // monitor untouched.
  DwmSynchronizer sync = sync_;
  DetectionCore core = core_;
  ChannelHealthMonitor health = health_;
  sync.restore_state(r);
  core.restore_state(r);
  health.restore_state(r);
  FeatureMaxima benign_max;
  benign_max.c_max = r.pod<double>();
  benign_max.h_max = r.pod<double>();
  benign_max.v_max = r.pod<double>();
  const auto benign_windows = r.pod<std::uint64_t>();
  // The three machines advance in lockstep — one core step and one health
  // observation per synchronizer window.
  if (core.windows() != sync.windows() ||
      health.observed() != sync.windows()) {
    throw nsync::signal::CheckpointError(
        nsync::signal::CheckpointErrorKind::kCorrupt,
        "RealtimeMonitor: synchronizer/core/health window counts disagree");
  }
  if (!std::isfinite(benign_max.c_max) || !std::isfinite(benign_max.h_max) ||
      !std::isfinite(benign_max.v_max) || benign_max.c_max < 0.0 ||
      benign_max.h_max < 0.0 || benign_max.v_max < 0.0 ||
      benign_windows > sync.windows()) {
    throw nsync::signal::CheckpointError(
        nsync::signal::CheckpointErrorKind::kCorrupt,
        "RealtimeMonitor: implausible benign-baseline accumulator");
  }
  sync_ = std::move(sync);
  core_ = std::move(core);
  health_ = std::move(health);
  benign_max_ = benign_max;
  benign_windows_ = benign_windows;
}

}  // namespace nsync::core
