// Tests for sliding normalized correlation: the FFT-accelerated path must
// agree with the naive reference exactly (this is the TDE ablation's
// correctness half).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/xcorr.hpp"
#include "signal/rng.hpp"
#include "testing/dsp_oracles.hpp"

namespace nsync::dsp {
namespace {

std::vector<double> random_series(std::size_t n, std::uint64_t seed) {
  nsync::signal::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

TEST(SlidingPearson, PerfectMatchScoresOne) {
  const auto y = random_series(32, 1);
  std::vector<double> x(100);
  nsync::signal::Rng rng(2);
  for (auto& v : x) v = rng.normal();
  const std::size_t at = 40;
  for (std::size_t i = 0; i < y.size(); ++i) x[at + i] = y[i];
  const auto s = sliding_pearson_naive(x, y);
  EXPECT_NEAR(s[at], 1.0, 1e-12);
  for (std::size_t n = 0; n < s.size(); ++n) {
    EXPECT_LE(std::abs(s[n]), 1.0 + 1e-9);
  }
}

TEST(SlidingPearson, GainInvariance) {
  auto y = random_series(16, 3);
  std::vector<double> x = random_series(64, 4);
  for (std::size_t i = 0; i < y.size(); ++i) x[20 + i] = 7.0 * y[i] + 2.0;
  const auto s = sliding_pearson_naive(x, y);
  EXPECT_NEAR(s[20], 1.0, 1e-12);  // correlation ignores gain and offset
}

TEST(SlidingPearson, ConstantTemplateScoresZero) {
  const std::vector<double> y(8, 5.0);
  const auto x = random_series(32, 6);
  const auto naive = sliding_pearson_naive(x, y);
  const auto fft = sliding_pearson_fft(x, y);
  for (std::size_t n = 0; n < naive.size(); ++n) {
    EXPECT_DOUBLE_EQ(naive[n], 0.0);
    EXPECT_DOUBLE_EQ(fft[n], 0.0);
  }
}

TEST(SlidingPearson, FlatWindowInSignalScoresZero) {
  std::vector<double> x(40, 1.0);  // constant signal regions
  for (std::size_t i = 30; i < 40; ++i) x[i] = static_cast<double>(i);
  const auto y = random_series(8, 7);
  const auto fft = sliding_pearson_fft(x, y);
  // Windows fully inside the flat region have zero variance -> score 0.
  EXPECT_DOUBLE_EQ(fft[0], 0.0);
  EXPECT_DOUBLE_EQ(fft[10], 0.0);
}

TEST(SlidingPearson, SizeChecks) {
  const std::vector<double> x(4, 0.0);
  const std::vector<double> y1(1, 0.0);
  const std::vector<double> y5(5, 0.0);
  EXPECT_THROW(sliding_pearson_naive(x, y1), std::invalid_argument);
  EXPECT_THROW(sliding_pearson_naive(x, y5), std::invalid_argument);
  EXPECT_THROW(sliding_pearson_fft(x, y5), std::invalid_argument);
}

class XcorrEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 std::uint64_t>> {};

TEST_P(XcorrEquivalence, FftMatchesNaive) {
  const auto [nx, ny, seed] = GetParam();
  const auto x = random_series(nx, seed);
  const auto y = random_series(ny, seed + 1000);
  const auto naive = sliding_pearson_naive(x, y);
  const auto fft = sliding_pearson_fft(x, y);
  ASSERT_EQ(naive.size(), fft.size());
  for (std::size_t n = 0; n < naive.size(); ++n) {
    // Near-degenerate windows (e.g. two nearly equal samples with ny = 2)
    // amplify rounding differences between the two formulations.
    EXPECT_NEAR(naive[n], fft[n], 1e-6) << "lag " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, XcorrEquivalence,
    ::testing::Combine(::testing::Values(64, 127, 256, 1000),
                       ::testing::Values(2, 16, 63),
                       ::testing::Values(101, 202)));

// Shapes at the edges of the valid-lag padding rule (transform size
// valid_lag_fft_size(nx) instead of next_power_of_two(nx + ny)).
const std::pair<std::size_t, std::size_t> kPaddingShapes[] = {
    {128, 16},   // nx a power of two: m == nx exactly
    {64, 63},    // nx a power of two, template almost as long
    {120, 16},   // nx + ny crosses 128: m halves to 128
    {100, 60},   // nx + ny crosses 128 with a long template
    {64, 64},    // ny == nx: a single output lag
    {97, 97},    // ny == nx, nx not a power of two
    {2, 2},      // smallest valid shape
    {256, 2},    // ny == 2
    {129, 2},    // ny == 2, nx one past a power of two
};

TEST(XcorrEquivalence, ValidLagPaddingShapesMatchNaive) {
  for (const auto& [nx, ny] : kPaddingShapes) {
    const auto x = random_series(nx, 501 + nx + ny);
    const auto y = random_series(ny, 502 + nx + ny);
    const auto naive = sliding_pearson_naive(x, y);
    const auto fft = sliding_pearson_fft(x, y);
    ASSERT_EQ(naive.size(), nx - ny + 1);
    ASSERT_EQ(fft.size(), naive.size());
    for (std::size_t n = 0; n < naive.size(); ++n) {
      EXPECT_NEAR(naive[n], fft[n], 1e-6)
          << "nx " << nx << " ny " << ny << " lag " << n;
    }
  }
}

TEST(XcorrEquivalence, ValidLagPaddingMatchesFullPaddingOracle) {
  // cross_correlate_valid_complex keeps the full nx + ny padding, so it
  // shares no transform size with the production path at these shapes.
  for (const auto& [nx, ny] : kPaddingShapes) {
    const auto x = random_series(nx, 601 + nx + ny);
    const auto y = random_series(ny, 602 + nx + ny);
    const auto got = cross_correlate_valid(x, y);
    const auto ref = cross_correlate_valid_complex(x, y);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t n = 0; n < ref.size(); ++n) {
      EXPECT_NEAR(got[n], ref[n], 1e-9 * static_cast<double>(ny))
          << "nx " << nx << " ny " << ny << " lag " << n;
    }
  }
}

TEST(XcorrEquivalence, BothSidesOfDirectCrossoverMatchComplexOracle) {
  // cross_correlate_valid picks the direct sum or the FFT by shape
  // (direct_xcorr_wins).  Either way each lag must sit within the
  // standard summation bound 2 * m * eps * sum|x[n+k] * y[k]| of the
  // full-padding complex oracle, m being the oracle's transform length
  // (the most terms any output of either path accumulates).
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {112, 64},    // the fleet's DWM window: direct
      {1024, 192},  // just below the crossover: direct
      {1024, 256},  // just above: FFT
      {1024, 768},  // FFT, long template
      {1024, 832},  // few lags again: direct
      {1000, 500},  // FFT, nx not a power of two
  };
  EXPECT_TRUE(direct_xcorr_wins(112, 64));
  EXPECT_TRUE(direct_xcorr_wins(1024, 192));
  EXPECT_FALSE(direct_xcorr_wins(1024, 256));
  EXPECT_FALSE(direct_xcorr_wins(1024, 768));
  EXPECT_TRUE(direct_xcorr_wins(1024, 832));
  EXPECT_FALSE(direct_xcorr_wins(1000, 500));
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  for (const auto& [nx, ny] : shapes) {
    const auto x = random_series(nx, 701 + nx + ny);
    const auto y = random_series(ny, 702 + nx + ny);
    const auto got = cross_correlate_valid(x, y);
    const auto ref = cross_correlate_valid_complex(x, y);
    const auto m = static_cast<double>(next_power_of_two(nx + ny));
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t n = 0; n < ref.size(); ++n) {
      double abs_terms = 0.0;
      for (std::size_t k = 0; k < ny; ++k) {
        abs_terms += std::abs(x[n + k] * y[k]);
      }
      EXPECT_LE(std::abs(got[n] - ref[n]), 2.0 * m * kEps * abs_terms)
          << "nx " << nx << " ny " << ny << " lag " << n;
    }
  }
}

TEST(CrossCorrelateValid, DirectPathKeepsNonFiniteSamplesLocal) {
  // On the direct path a NaN reaches only the lags whose window covers
  // it; the FFT path would spread it to every lag.
  const std::size_t nx = 112, ny = 64, bad = 100;
  ASSERT_TRUE(direct_xcorr_wins(nx, ny));
  auto x = random_series(nx, 801);
  const auto y = random_series(ny, 802);
  x[bad] = std::numeric_limits<double>::quiet_NaN();
  const auto got = cross_correlate_valid(x, y);
  for (std::size_t n = 0; n < got.size(); ++n) {
    const bool covers = n <= bad && bad < n + ny;
    EXPECT_EQ(std::isnan(got[n]), covers) << "lag " << n;
  }
  // The Pearson score built on it centers by the global mean, which the
  // NaN poisons, so every window scores 0 there.
  for (const double s : sliding_pearson_fft(x, y)) EXPECT_EQ(s, 0.0);
}

TEST(XcorrEquivalence, RfftPathMatchesComplexPath) {
  // Production real-FFT path vs the pre-rfft full-complex implementation.
  for (const auto& [nx, ny] : {std::pair<std::size_t, std::size_t>{64, 16},
                               {127, 32},
                               {1000, 63}}) {
    const auto x = random_series(nx, 301 + nx);
    const auto y = random_series(ny, 302 + nx);
    const auto real_path = sliding_pearson_fft(x, y);
    const auto complex_path = sliding_pearson_fft_complex(x, y);
    ASSERT_EQ(real_path.size(), complex_path.size());
    for (std::size_t n = 0; n < real_path.size(); ++n) {
      EXPECT_NEAR(real_path[n], complex_path[n], 1e-7)
          << "nx " << nx << " lag " << n;
    }
  }
}

TEST(XcorrEquivalence, WorkspaceVariantIsBitwiseEqualToWrapper) {
  // sliding_pearson_fft is a thin wrapper over the _into workspace
  // variant; same arithmetic order, so the outputs must be identical to
  // the bit even when the workspace is reused across shapes.
  SlidingPearsonWorkspace ws;
  for (const auto& [nx, ny] : {std::pair<std::size_t, std::size_t>{64, 16},
                               {250, 7},
                               {96, 40}}) {
    const auto x = random_series(nx, 401 + nx);
    const auto y = random_series(ny, 402 + nx);
    const auto wrapped = sliding_pearson_fft(x, y);
    std::vector<double> out(nx - ny + 1);
    sliding_pearson_fft_into(x, y, out, ws);
    for (std::size_t n = 0; n < out.size(); ++n) {
      EXPECT_EQ(wrapped[n], out[n]) << "nx " << nx << " lag " << n;
    }
  }
}

TEST(XcorrEquivalence, LargeOffsetsAndScales) {
  // The prefix-sum denominator must stay accurate when the data has a huge
  // DC offset (catastrophic cancellation risk).
  nsync::signal::Rng rng(55);
  std::vector<double> x(200), y(20);
  for (auto& v : x) v = 1.0e6 + rng.normal();
  for (auto& v : y) v = -3.0e5 + rng.normal();
  const auto naive = sliding_pearson_naive(x, y);
  const auto fft = sliding_pearson_fft(x, y);
  for (std::size_t n = 0; n < naive.size(); ++n) {
    EXPECT_NEAR(naive[n], fft[n], 1e-6) << "lag " << n;
  }
}

}  // namespace
}  // namespace nsync::dsp
