// Sliding normalized correlation ("the sliding method", Section V-B).
//
// Two entry points with matching output (up to rounding) are provided:
// the production centered-numerator + prefix-sum path
// (sliding_pearson_fft*, the default inside TDE) and a naive per-window
// stats::pearson evaluation (sliding_pearson_naive_into, selected by
// TdeOptions::use_fft = false).  The production path takes its numerator
// from cross_correlate_valid_into, which picks a direct O(n_out * Ny) sum
// for short lag ranges (every DWM window) and the real-FFT round trip
// otherwise (dsp::direct_xcorr_wins, DESIGN.md §3.2).  Reference
// implementations for tests and ablations (an allocating naive wrapper
// and a pre-rfft complex-FFT variant) live in the test-only nsync_testing
// library (testing/dsp_oracles.hpp).  The *_into entry points write into
// caller-owned buffers and perform no heap allocation once their
// workspace has reached steady-state size.
//
// The production path's centering, prefix-sum, numerator and
// window-normalization passes run through the runtime-dispatched SIMD
// kernels (dsp/simd/simd.hpp).
// Under a vector backend the prefix sums and energy reductions
// reassociate, so scores can differ from the scalar backend by a few
// ULPs (see DESIGN.md, "SIMD dispatch"); the degenerate-window guard is
// relative (1e-12) and unaffected by that noise.
#ifndef NSYNC_DSP_XCORR_HPP
#define NSYNC_DSP_XCORR_HPP

#include <span>
#include <vector>

#include "dsp/fft.hpp"

namespace nsync::dsp {

/// Reusable scratch for sliding_pearson_fft_into: centered copies of both
/// inputs, the FFT numerator, the prefix sums, and the real-FFT staging
/// buffers.  A default-constructed workspace is valid for any input.
struct SlidingPearsonWorkspace {
  std::vector<double> yc;   ///< centered template
  std::vector<double> xc;   ///< centered long signal
  std::vector<double> num;  ///< FFT cross-correlation numerator
  std::vector<double> ps;   ///< prefix sums of xc
  std::vector<double> ps2;  ///< prefix sums of xc^2
  CorrelationWorkspace corr;
};

/// s[n] = pearson(x[n : n+Ny], y) for n = 0 .. Nx-Ny  (Eq. 1 with Eq. 3),
/// computed with one valid-lag cross-correlation for the numerator
/// (direct or FFT by shape) and prefix sums for the windowed means/norms.
/// Requires x.size() >= y.size() >= 2.  Degenerate windows (zero
/// variance, non-finite samples) score 0, matching stats::pearson.  On
/// non-finite input the paths differ: a NaN in `x` poisons the global
/// mean this path centers by, so every window scores 0 (whichever
/// numerator ran), while the naive path zeroes only the windows that
/// overlap the NaN — upstream consumers (DwmSynchronizer) mask such
/// windows out before scoring.
[[nodiscard]] std::vector<double> sliding_pearson_fft(
    std::span<const double> x, std::span<const double> y);

/// Same as sliding_pearson_fft, writing into `out` (which must have
/// exactly x.size() - y.size() + 1 elements) using `ws` for all scratch.
/// Zero heap allocations at steady state; bitwise identical to the
/// allocating wrapper.
void sliding_pearson_fft_into(std::span<const double> x,
                              std::span<const double> y,
                              std::span<double> out,
                              SlidingPearsonWorkspace& ws);

/// Same scores by direct evaluation: one stats::pearson per window,
/// written into `out` (same size contract as sliding_pearson_fft_into).
/// Allocation-free.
void sliding_pearson_naive_into(std::span<const double> x,
                                std::span<const double> y,
                                std::span<double> out);

}  // namespace nsync::dsp

#endif  // NSYNC_DSP_XCORR_HPP
