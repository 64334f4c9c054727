// The shared reference: one immutable object per distinct (reference
// signal, DWM window width), interned process-wide and held through
// shared_ptr by every synchronizer that tracks that reference.
//
// DWM runs TDEB once per window against an extended slice of the
// reference (Section VI-B).  Everything TDEB needs from that slice that
// does not depend on the observed window — per-channel centering, the
// windowed standard deviation at every placement, the degeneracy scans —
// is a function of the reference alone, so it is computed here once, at
// construction (the CRC-32 fingerprint on first use), instead of once per
// window of every session.  N sessions printing the same part share one
// object: one copy of the signal, one fingerprint, one set of
// precomputed arrays.
//
// Nothing here is checkpointed: the state is derived from the signal and
// rebuilt on restore; checkpoints keep storing only the fingerprint.
#ifndef NSYNC_CORE_REFERENCE_HPP
#define NSYNC_CORE_REFERENCE_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "signal/signal.hpp"

namespace nsync::core {

class ReferenceState {
 public:
  /// Returns the process-wide object for (`signal`, `n_win`), building it
  /// on first use.  Two calls share one object iff the signals are equal
  /// byte for byte (same frames, channels, sample rate and samples) and
  /// `n_win` is equal; the lookup hashes the samples once and confirms a
  /// hit with a full byte compare.  The object is freed with its last
  /// handle.  Thread-safe.  Throws std::invalid_argument unless
  /// 1 <= n_win <= signal.frames() and signal.frames() < 2^32.
  [[nodiscard]] static std::shared_ptr<const ReferenceState> intern(
      nsync::signal::Signal signal, std::size_t n_win);

  /// Live interned objects (tests).
  [[nodiscard]] static std::size_t interned_count();

  ReferenceState(const ReferenceState&) = delete;
  ReferenceState& operator=(const ReferenceState&) = delete;

  /// The interleaved reference samples.
  [[nodiscard]] const nsync::signal::Signal& signal() const { return signal_; }
  [[nodiscard]] std::size_t frames() const { return signal_.frames(); }
  [[nodiscard]] std::size_t channels() const { return signal_.channels(); }
  [[nodiscard]] std::size_t n_win() const { return n_win_; }

  /// signal::crc32 over the interleaved samples (checkpoint fingerprint).
  /// Computed once, on the first call: a fleet that never checkpoints
  /// never pays for it.  Thread-safe.
  [[nodiscard]] std::uint32_t fingerprint() const;

  /// Channel c, de-interleaved and centered by the mean of its finite
  /// samples (non-finite samples stay non-finite).  frames() entries.
  [[nodiscard]] std::span<const double> centered(std::size_t c) const {
    return {centered_.data() + c * frames(), frames()};
  }

  /// 1 / std of channel c over the n_win-frame window starting at every
  /// offset s (frames() - n_win + 1 entries): 1/sqrt(sum over the window
  /// of (x - window mean)^2).  0 where the window is degenerate for that
  /// channel: constant, holding a non-finite sample, or with a variance
  /// at rounding noise (simd::degenerate_variance).
  ///
  /// Built in O(frames) per channel by sliding sums that are re-anchored
  /// every n_win offsets (and after every non-finite sample): each block
  /// of n_win offsets sums deviations from its first window's mean.
  /// Error bound, from standard summation analysis over the at most
  /// 2 n_win - 1 samples a block touches: with R the range (max - min)
  /// of channel c over frames [s - n_win + 1, s + n_win), the
  /// variance behind entry s is within 16 n_win^2 eps R^2 of the exact
  /// windowed variance (eps = 2^-53).  tests/test_reference.cpp checks it
  /// against a two-pass oracle.
  [[nodiscard]] std::span<const double> inv_std(std::size_t c) const {
    const std::size_t n = frames() - n_win_ + 1;
    return {inv_std_.data() + c * n, n};
  }

  /// Same answer as signal::degenerate_window(signal().slice(begin, end))
  /// in O(1): fewer than 2 frames, a non-finite sample in any channel, or
  /// every channel constant.  Requires begin <= end <= frames().
  [[nodiscard]] bool degenerate(std::size_t begin, std::size_t end) const {
    return end - begin < 2 || bad_before_[end] != bad_before_[begin] ||
           run_start_[end - 1] <= begin;
  }

 private:
  ReferenceState(nsync::signal::Signal signal, std::size_t n_win);

  nsync::signal::Signal signal_;
  std::size_t n_win_;
  mutable std::once_flag crc_once_;
  mutable std::uint32_t crc_ = 0;
  std::vector<double> centered_;  // channel-major, frames() per channel
  std::vector<double> inv_std_;   // channel-major, frames()-n_win+1 each
  // Frames before k holding a non-finite sample (frames() + 1 entries).
  std::vector<std::uint32_t> bad_before_;
  // Maximum over channels of the start of the constant run holding frame
  // k: every channel is constant on [b, e) iff run_start_[e - 1] <= b.
  std::vector<std::uint32_t> run_start_;
};

}  // namespace nsync::core

#endif  // NSYNC_CORE_REFERENCE_HPP
