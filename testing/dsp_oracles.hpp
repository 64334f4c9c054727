// Reference implementations of the DSP kernels, for tests and benches.
//
// Each is the straightforward form of a production path in nsync_dsp
// (dsp/fft.hpp, dsp/xcorr.hpp): tests compare the production path
// against it, and bench_micro / bench_ablation_tde_speed time it as the
// baseline.  Nothing in the shipping libraries calls these, so they live
// in the test-only nsync_testing library, built when tests or benches
// are.  They keep the nsync::dsp namespace of the paths they check.
#ifndef NSYNC_TESTING_DSP_ORACLES_HPP
#define NSYNC_TESTING_DSP_ORACLES_HPP

#include <span>
#include <vector>

#include "dsp/fft.hpp"

namespace nsync::dsp {

/// Reference radix-2 FFT that recomputes its twiddle factors on every
/// call (the pre-cache implementation).  Kept for the cache-equivalence
/// tests and the BM_FftUncached micro-bench; prefer fft_radix2.
void fft_radix2_uncached(std::span<Complex> data, bool inverse = false);

/// Pre-rfft reference implementation using two full-size complex FFTs,
/// padded to the full linear length next_power_of_two(nx + ny) so it stays
/// independent of the valid-lag padding rule.  Kept for the rfft
/// equivalence tests and the bench_ablation_tde_speed ablation; prefer
/// cross_correlate_valid.
[[nodiscard]] std::vector<double> cross_correlate_valid_complex(
    std::span<const double> x, std::span<const double> y);

/// s[n] = pearson(x[n : n+Ny], y) for n = 0 .. Nx-Ny  (Eq. 1 with Eq. 3).
/// Direct evaluation: the allocating wrapper of sliding_pearson_naive_into.
/// Requires x.size() >= y.size() >= 2.
[[nodiscard]] std::vector<double> sliding_pearson_naive(
    std::span<const double> x, std::span<const double> y);

/// Pre-rfft reference: the numerator comes from the full-size complex-FFT
/// cross-correlation.  Kept for the rfft equivalence tests and the
/// bench_ablation_tde_speed ablation.
[[nodiscard]] std::vector<double> sliding_pearson_fft_complex(
    std::span<const double> x, std::span<const double> y);

/// Variance sum of every n_win-sample window, v[s] = sum over
/// x[s .. s+n_win) of (x - window mean)^2 for s = 0 .. x.size() - n_win,
/// by two passes per window (mean, then squared deviations): the oracle
/// for core::ReferenceState::inv_std.  NaN for a window holding a
/// non-finite sample.  Requires 1 <= n_win <= x.size().
[[nodiscard]] std::vector<double> windowed_variance_two_pass(
    std::span<const double> x, std::size_t n_win);

}  // namespace nsync::dsp

#endif  // NSYNC_TESTING_DSP_ORACLES_HPP
