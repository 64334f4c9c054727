// NEON (aarch64) backend: 2-wide float64x2_t versions of every kernel.
//
// aarch64 NEON has no FMA-by-default hazard at the intrinsics level —
// vmulq/vaddq/vsubq map to unfused instructions — so the lane-parallel
// kernels here are bitwise identical to the scalar backend by the same
// argument as the AVX2 file: identical per-lane operation sequence, no
// reassociation.  vld2q/vst2q give free (de)interleaves for the complex
// AoS layouts; vextq_f64(v, v, 1) is the 2-lane reverse.
//
// The reductions at the bottom reassociate (2 partial accumulators /
// in-register scan) and are covered by the ULP bound in simd.hpp.
#include "dsp/simd/kernels.hpp"

#if defined(NSYNC_SIMD_HAVE_NEON)

#include <arm_neon.h>

#include <cmath>

namespace nsync::dsp::simd::neon {
namespace {

inline float64x2_t rev(float64x2_t v) { return vextq_f64(v, v, 1); }

/// [v0, v0+v1] (reassociating scan step for prefix_sums only).
inline float64x2_t inclusive_scan(float64x2_t v) {
  return vaddq_f64(v, vextq_f64(vdupq_n_f64(0.0), v, 1));
}

}  // namespace

void radix2_pass(double* re, double* im, std::size_t n, std::size_t len,
                 const double* twr, const double* twi, bool inverse) {
  const std::size_t half = len / 2;
  if (len == 2) {
    if (n < 4) {
      scalar::radix2_pass(re, im, n, len, twr, twi, inverse);
      return;
    }
    // vld2q deinterleaves two (u, v) blocks per iteration.
    const float64x2_t wr = vdupq_n_f64(twr[0]);
    const float64x2_t wi = vdupq_n_f64(inverse ? -twi[0] : twi[0]);
    for (std::size_t i = 0; i < n; i += 4) {
      float64x2x2_t r = vld2q_f64(re + i);  // val[0]=u_re, val[1]=v_re
      float64x2x2_t m = vld2q_f64(im + i);
      const float64x2_t tr =
          vsubq_f64(vmulq_f64(r.val[1], wr), vmulq_f64(m.val[1], wi));
      const float64x2_t ti =
          vaddq_f64(vmulq_f64(r.val[1], wi), vmulq_f64(m.val[1], wr));
      const float64x2_t ur = r.val[0];
      const float64x2_t ui = m.val[0];
      r.val[0] = vaddq_f64(ur, tr);
      r.val[1] = vsubq_f64(ur, tr);
      m.val[0] = vaddq_f64(ui, ti);
      m.val[1] = vsubq_f64(ui, ti);
      vst2q_f64(re + i, r);
      vst2q_f64(im + i, m);
    }
    return;
  }
  // len >= 4: half is a multiple of 2, plain 2-wide k loop, no tail.
  for (std::size_t i = 0; i < n; i += len) {
    for (std::size_t k = 0; k < half; k += 2) {
      float64x2_t wr = vld1q_f64(twr + k);
      float64x2_t wi = vld1q_f64(twi + k);
      if (inverse) wi = vnegq_f64(wi);
      double* rea = re + i + k;
      double* ima = im + i + k;
      double* reb = rea + half;
      double* imb = ima + half;
      const float64x2_t vr = vld1q_f64(reb);
      const float64x2_t vi = vld1q_f64(imb);
      const float64x2_t tr = vsubq_f64(vmulq_f64(vr, wr), vmulq_f64(vi, wi));
      const float64x2_t ti = vaddq_f64(vmulq_f64(vr, wi), vmulq_f64(vi, wr));
      const float64x2_t ur = vld1q_f64(rea);
      const float64x2_t ui = vld1q_f64(ima);
      vst1q_f64(rea, vaddq_f64(ur, tr));
      vst1q_f64(ima, vaddq_f64(ui, ti));
      vst1q_f64(reb, vsubq_f64(ur, tr));
      vst1q_f64(imb, vsubq_f64(ui, ti));
    }
  }
}

void radix2_pass_batch(double* re, double* im, std::size_t n,
                       std::size_t lanes, std::size_t len, const double* twr,
                       const double* twi, bool inverse) {
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    for (std::size_t k = 0; k < half; ++k) {
      const double wr_s = twr[k];
      const double wi_s = inverse ? -twi[k] : twi[k];
      const float64x2_t wr = vdupq_n_f64(wr_s);
      const float64x2_t wi = vdupq_n_f64(wi_s);
      double* ure = re + (i + k) * lanes;
      double* uim = im + (i + k) * lanes;
      double* vre = re + (i + k + half) * lanes;
      double* vim = im + (i + k + half) * lanes;
      std::size_t l = 0;
      for (; l + 2 <= lanes; l += 2) {
        const float64x2_t vr = vld1q_f64(vre + l);
        const float64x2_t vi = vld1q_f64(vim + l);
        const float64x2_t tr =
            vsubq_f64(vmulq_f64(vr, wr), vmulq_f64(vi, wi));
        const float64x2_t ti =
            vaddq_f64(vmulq_f64(vr, wi), vmulq_f64(vi, wr));
        const float64x2_t ur = vld1q_f64(ure + l);
        const float64x2_t ui = vld1q_f64(uim + l);
        vst1q_f64(ure + l, vaddq_f64(ur, tr));
        vst1q_f64(uim + l, vaddq_f64(ui, ti));
        vst1q_f64(vre + l, vsubq_f64(ur, tr));
        vst1q_f64(vim + l, vsubq_f64(ui, ti));
      }
      for (; l < lanes; ++l) {
        const double vr = vre[l];
        const double vi = vim[l];
        const double tr = vr * wr_s - vi * wi_s;
        const double ti = vr * wi_s + vi * wr_s;
        const double ur = ure[l];
        const double ui = uim[l];
        ure[l] = ur + tr;
        uim[l] = ui + ti;
        vre[l] = ur - tr;
        vim[l] = ui - ti;
      }
    }
  }
}

void divide2(double* re, double* im, std::size_t n, double d) {
  const float64x2_t dv = vdupq_n_f64(d);
  for (double* p : {re, im}) {
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      vst1q_f64(p + i, vdivq_f64(vld1q_f64(p + i), dv));
    }
    for (; i < n; ++i) p[i] /= d;
  }
}

void cmul_inplace(Complex* a, const Complex* b, std::size_t n) {
  double* ap = reinterpret_cast<double*>(a);
  const double* bp = reinterpret_cast<const double*>(b);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2x2_t av = vld2q_f64(ap + 2 * i);  // val[0]=re, val[1]=im
    const float64x2x2_t bv = vld2q_f64(bp + 2 * i);
    float64x2x2_t out;
    out.val[0] = vsubq_f64(vmulq_f64(av.val[0], bv.val[0]),
                           vmulq_f64(av.val[1], bv.val[1]));
    out.val[1] = vaddq_f64(vmulq_f64(av.val[0], bv.val[1]),
                           vmulq_f64(av.val[1], bv.val[0]));
    vst2q_f64(ap + 2 * i, out);
  }
  for (; i < n; ++i) {
    const double ar = a[i].real();
    const double ai = a[i].imag();
    const double br = b[i].real();
    const double bi = b[i].imag();
    a[i] = Complex(ar * br - ai * bi, ar * bi + ai * br);
  }
}

void cmul_split_inplace(double* ar, double* ai, const double* br,
                        const double* bi, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t xr = vld1q_f64(ar + i);
    const float64x2_t xi = vld1q_f64(ai + i);
    const float64x2_t yr = vld1q_f64(br + i);
    const float64x2_t yi = vld1q_f64(bi + i);
    vst1q_f64(ar + i, vsubq_f64(vmulq_f64(xr, yr), vmulq_f64(xi, yi)));
    vst1q_f64(ai + i, vaddq_f64(vmulq_f64(xr, yi), vmulq_f64(xi, yr)));
  }
  for (; i < n; ++i) {
    const double xr = ar[i];
    const double xi = ai[i];
    ar[i] = xr * br[i] - xi * bi[i];
    ai[i] = xr * bi[i] + xi * br[i];
  }
}

void cmul_rows_broadcast(double* re, double* im, std::size_t rows,
                         std::size_t lanes, const double* wr,
                         const double* wi) {
  for (std::size_t k = 0; k < rows; ++k) {
    const double cr_s = wr[k];
    const double ci_s = wi[k];
    const float64x2_t cr = vdupq_n_f64(cr_s);
    const float64x2_t ci = vdupq_n_f64(ci_s);
    double* rre = re + k * lanes;
    double* rim = im + k * lanes;
    std::size_t l = 0;
    for (; l + 2 <= lanes; l += 2) {
      const float64x2_t xr = vld1q_f64(rre + l);
      const float64x2_t xi = vld1q_f64(rim + l);
      vst1q_f64(rre + l, vsubq_f64(vmulq_f64(xr, cr), vmulq_f64(xi, ci)));
      vst1q_f64(rim + l, vaddq_f64(vmulq_f64(xr, ci), vmulq_f64(xi, cr)));
    }
    for (; l < lanes; ++l) {
      const double xr = rre[l];
      const double xi = rim[l];
      rre[l] = xr * cr_s - xi * ci_s;
      rim[l] = xr * ci_s + xi * cr_s;
    }
  }
}

void rfft_untangle(const double* hre, const double* him, const double* twr,
                   const double* twi, std::size_t h, Complex* out) {
  const float64x2_t halfc = vdupq_n_f64(0.5);
  const float64x2_t neghalf = vdupq_n_f64(-0.5);
  const float64x2_t zero = vdupq_n_f64(0.0);
  double* outp = reinterpret_cast<double*>(out);
  std::size_t k = 1;
  for (; k + 2 <= h; k += 2) {
    const float64x2_t zr = vld1q_f64(hre + k);
    const float64x2_t zi = vld1q_f64(him + k);
    const float64x2_t cr = rev(vld1q_f64(hre + (h - k - 1)));
    const float64x2_t ci = rev(vld1q_f64(him + (h - k - 1)));
    const float64x2_t er = vmulq_f64(halfc, vaddq_f64(zr, cr));
    const float64x2_t ei = vmulq_f64(halfc, vsubq_f64(zi, ci));
    const float64x2_t dr = vsubq_f64(zr, cr);
    const float64x2_t di = vaddq_f64(zi, ci);
    const float64x2_t odd_r =
        vsubq_f64(vmulq_f64(zero, dr), vmulq_f64(neghalf, di));
    const float64x2_t odd_i =
        vaddq_f64(vmulq_f64(zero, di), vmulq_f64(neghalf, dr));
    const float64x2_t wr = vld1q_f64(twr + k);
    const float64x2_t wi = vld1q_f64(twi + k);
    float64x2x2_t o;
    o.val[0] = vaddq_f64(
        er, vsubq_f64(vmulq_f64(wr, odd_r), vmulq_f64(wi, odd_i)));
    o.val[1] = vaddq_f64(
        ei, vaddq_f64(vmulq_f64(wr, odd_i), vmulq_f64(wi, odd_r)));
    vst2q_f64(outp + 2 * k, o);
  }
  for (; k < h; ++k) {
    const double sr = hre[k] + hre[h - k];
    const double si = him[k] - him[h - k];
    const double er = 0.5 * sr;
    const double ei = 0.5 * si;
    const double dr = hre[k] - hre[h - k];
    const double di = him[k] + him[h - k];
    const double odd_r = 0.0 * dr - (-0.5) * di;
    const double odd_i = 0.0 * di + (-0.5) * dr;
    out[k] = Complex(er + (twr[k] * odd_r - twi[k] * odd_i),
                     ei + (twr[k] * odd_i + twi[k] * odd_r));
  }
}

void irfft_untangle(const Complex* bins, const double* twr, const double* twi,
                    std::size_t h, double* out_re, double* out_im) {
  const float64x2_t halfc = vdupq_n_f64(0.5);
  const float64x2_t zero = vdupq_n_f64(0.0);
  const float64x2_t one = vdupq_n_f64(1.0);
  const double* bp = reinterpret_cast<const double*>(bins);
  std::size_t k = 0;
  for (; k + 2 <= h && h >= 2; k += 2) {
    const float64x2x2_t fwd = vld2q_f64(bp + 2 * k);
    const float64x2x2_t bwd = vld2q_f64(bp + 2 * (h - k - 1));
    const float64x2_t xr = fwd.val[0];
    const float64x2_t xi = fwd.val[1];
    const float64x2_t cr = rev(bwd.val[0]);
    const float64x2_t ci = rev(bwd.val[1]);
    const float64x2_t er = vmulq_f64(halfc, vaddq_f64(xr, cr));
    const float64x2_t ei = vmulq_f64(halfc, vsubq_f64(xi, ci));
    const float64x2_t ir = vmulq_f64(halfc, vsubq_f64(xr, cr));
    const float64x2_t ii = vmulq_f64(halfc, vaddq_f64(xi, ci));
    const float64x2_t wr = vld1q_f64(twr + k);
    const float64x2_t nti = vnegq_f64(vld1q_f64(twi + k));
    const float64x2_t odd_r =
        vsubq_f64(vmulq_f64(wr, ir), vmulq_f64(nti, ii));
    const float64x2_t odd_i =
        vaddq_f64(vmulq_f64(wr, ii), vmulq_f64(nti, ir));
    vst1q_f64(out_re + k,
              vaddq_f64(er, vsubq_f64(vmulq_f64(zero, odd_r),
                                      vmulq_f64(one, odd_i))));
    vst1q_f64(out_im + k,
              vaddq_f64(ei, vaddq_f64(vmulq_f64(zero, odd_i),
                                      vmulq_f64(one, odd_r))));
  }
  for (; k < h; ++k) {
    const double er = 0.5 * (bins[k].real() + bins[h - k].real());
    const double ei = 0.5 * (bins[k].imag() - bins[h - k].imag());
    const double ir = 0.5 * (bins[k].real() - bins[h - k].real());
    const double ii = 0.5 * (bins[k].imag() + bins[h - k].imag());
    const double nti = -twi[k];
    const double odd_r = twr[k] * ir - nti * ii;
    const double odd_i = twr[k] * ii + nti * ir;
    out_re[k] = er + (0.0 * odd_r - 1.0 * odd_i);
    out_im[k] = ei + (0.0 * odd_i + 1.0 * odd_r);
  }
}

void rfft_untangle_batch(const double* hre, const double* him,
                         const double* twr, const double* twi, std::size_t h,
                         std::size_t lanes, double* out_re, double* out_im) {
  const float64x2_t halfc = vdupq_n_f64(0.5);
  const float64x2_t neghalf = vdupq_n_f64(-0.5);
  const float64x2_t zero = vdupq_n_f64(0.0);
  for (std::size_t k = 1; k < h; ++k) {
    const double* zr = hre + k * lanes;
    const double* zi = him + k * lanes;
    const double* cr = hre + (h - k) * lanes;
    const double* ci = him + (h - k) * lanes;
    double* orow = out_re + k * lanes;
    double* irow = out_im + k * lanes;
    const float64x2_t wr = vdupq_n_f64(twr[k]);
    const float64x2_t wi = vdupq_n_f64(twi[k]);
    std::size_t l = 0;
    for (; l + 2 <= lanes; l += 2) {
      const float64x2_t zrv = vld1q_f64(zr + l);
      const float64x2_t ziv = vld1q_f64(zi + l);
      const float64x2_t crv = vld1q_f64(cr + l);
      const float64x2_t civ = vld1q_f64(ci + l);
      const float64x2_t er = vmulq_f64(halfc, vaddq_f64(zrv, crv));
      const float64x2_t ei = vmulq_f64(halfc, vsubq_f64(ziv, civ));
      const float64x2_t dr = vsubq_f64(zrv, crv);
      const float64x2_t di = vaddq_f64(ziv, civ);
      const float64x2_t odd_r =
          vsubq_f64(vmulq_f64(zero, dr), vmulq_f64(neghalf, di));
      const float64x2_t odd_i =
          vaddq_f64(vmulq_f64(zero, di), vmulq_f64(neghalf, dr));
      vst1q_f64(orow + l,
                vaddq_f64(er, vsubq_f64(vmulq_f64(wr, odd_r),
                                        vmulq_f64(wi, odd_i))));
      vst1q_f64(irow + l,
                vaddq_f64(ei, vaddq_f64(vmulq_f64(wr, odd_i),
                                        vmulq_f64(wi, odd_r))));
    }
    for (; l < lanes; ++l) {
      const double sr = zr[l] + cr[l];
      const double si = zi[l] - ci[l];
      const double er = 0.5 * sr;
      const double ei = 0.5 * si;
      const double dr = zr[l] - cr[l];
      const double di = zi[l] + ci[l];
      const double odd_r = 0.0 * dr - (-0.5) * di;
      const double odd_i = 0.0 * di + (-0.5) * dr;
      orow[l] = er + (twr[k] * odd_r - twi[k] * odd_i);
      irow[l] = ei + (twr[k] * odd_i + twi[k] * odd_r);
    }
  }
}

void irfft_untangle_batch(const double* br, const double* bi,
                          const double* twr, const double* twi, std::size_t h,
                          std::size_t lanes, double* out_re, double* out_im) {
  const float64x2_t halfc = vdupq_n_f64(0.5);
  const float64x2_t zero = vdupq_n_f64(0.0);
  const float64x2_t one = vdupq_n_f64(1.0);
  for (std::size_t k = 0; k < h; ++k) {
    const double* xr = br + k * lanes;
    const double* xi = bi + k * lanes;
    const double* cr = br + (h - k) * lanes;
    const double* ci = bi + (h - k) * lanes;
    double* orow = out_re + k * lanes;
    double* irow = out_im + k * lanes;
    const double nti_s = -twi[k];
    const float64x2_t wr = vdupq_n_f64(twr[k]);
    const float64x2_t nti = vdupq_n_f64(nti_s);
    std::size_t l = 0;
    for (; l + 2 <= lanes; l += 2) {
      const float64x2_t xrv = vld1q_f64(xr + l);
      const float64x2_t xiv = vld1q_f64(xi + l);
      const float64x2_t crv = vld1q_f64(cr + l);
      const float64x2_t civ = vld1q_f64(ci + l);
      const float64x2_t er = vmulq_f64(halfc, vaddq_f64(xrv, crv));
      const float64x2_t ei = vmulq_f64(halfc, vsubq_f64(xiv, civ));
      const float64x2_t ir = vmulq_f64(halfc, vsubq_f64(xrv, crv));
      const float64x2_t ii = vmulq_f64(halfc, vaddq_f64(xiv, civ));
      const float64x2_t odd_r =
          vsubq_f64(vmulq_f64(wr, ir), vmulq_f64(nti, ii));
      const float64x2_t odd_i =
          vaddq_f64(vmulq_f64(wr, ii), vmulq_f64(nti, ir));
      vst1q_f64(orow + l,
                vaddq_f64(er, vsubq_f64(vmulq_f64(zero, odd_r),
                                        vmulq_f64(one, odd_i))));
      vst1q_f64(irow + l,
                vaddq_f64(ei, vaddq_f64(vmulq_f64(zero, odd_i),
                                        vmulq_f64(one, odd_r))));
    }
    for (; l < lanes; ++l) {
      const double er = 0.5 * (xr[l] + cr[l]);
      const double ei = 0.5 * (xi[l] - ci[l]);
      const double ir = 0.5 * (xr[l] - cr[l]);
      const double ii = 0.5 * (xi[l] + ci[l]);
      const double odd_r = twr[k] * ir - nti_s * ii;
      const double odd_i = twr[k] * ii + nti_s * ir;
      orow[l] = er + (0.0 * odd_r - 1.0 * odd_i);
      irow[l] = ei + (0.0 * odd_i + 1.0 * odd_r);
    }
  }
}

void deinterleave(const double* xy, std::size_t n, double* re, double* im) {
  std::size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    const float64x2x2_t v = vld2q_f64(xy + 2 * k);
    vst1q_f64(re + k, v.val[0]);
    vst1q_f64(im + k, v.val[1]);
  }
  for (; k < n; ++k) {
    re[k] = xy[2 * k];
    im[k] = xy[2 * k + 1];
  }
}

void interleave(const double* re, const double* im, std::size_t n,
                double* xy) {
  std::size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    float64x2x2_t v;
    v.val[0] = vld1q_f64(re + k);
    v.val[1] = vld1q_f64(im + k);
    vst2q_f64(xy + 2 * k, v);
  }
  for (; k < n; ++k) {
    xy[2 * k] = re[k];
    xy[2 * k + 1] = im[k];
  }
}

void subtract_scalar(const double* src, double mu, double* dst,
                     std::size_t n) {
  const float64x2_t mv = vdupq_n_f64(mu);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(dst + i, vsubq_f64(vld1q_f64(src + i), mv));
  }
  for (; i < n; ++i) dst[i] = src[i] - mu;
}

void mul_arrays(const double* a, const double* b, double* dst,
                std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(dst + i, vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] * b[i];
}

void mul_rows_broadcast_real(const double* src, std::size_t rows,
                             std::size_t lanes, const double* w, double* dst) {
  for (std::size_t k = 0; k < rows; ++k) {
    const double c_s = w[k];
    const float64x2_t c = vdupq_n_f64(c_s);
    const double* s = src + k * lanes;
    double* d = dst + k * lanes;
    std::size_t l = 0;
    for (; l + 2 <= lanes; l += 2) {
      vst1q_f64(d + l, vmulq_f64(vld1q_f64(s + l), c));
    }
    for (; l < lanes; ++l) d[l] = s[l] * c_s;
  }
}

void add_arrays(double* dst, const double* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(dst + i, vaddq_f64(vld1q_f64(dst + i), vld1q_f64(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

void scale(double* x, double s, std::size_t n) {
  const float64x2_t sv = vdupq_n_f64(s);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(x + i, vmulq_f64(vld1q_f64(x + i), sv));
  }
  for (; i < n; ++i) x[i] *= s;
}

void normalize_windows(const double* ps, const double* ps2, std::size_t ny,
                       double y_norm, const double* num, double* out,
                       std::size_t n_out) {
  // NaN routing: vmaxq propagates NaN where std::max(1.0, s2) returns
  // 1.0, but a NaN s2 forces a NaN var anyway and the vcgtq compare is
  // false on NaN, so both formulations land in the degenerate branch.
  const double ny_d = static_cast<double>(ny);
  const float64x2_t nyv = vdupq_n_f64(ny_d);
  const float64x2_t ones = vdupq_n_f64(1.0);
  const float64x2_t eps = vdupq_n_f64(1e-12);
  const float64x2_t ynv = vdupq_n_f64(y_norm);
  const float64x2_t inf = vdupq_n_f64(HUGE_VAL);
  std::size_t n = 0;
  for (; n + 2 <= n_out; n += 2) {
    const float64x2_t s1 =
        vsubq_f64(vld1q_f64(ps + n + ny), vld1q_f64(ps + n));
    const float64x2_t s2 =
        vsubq_f64(vld1q_f64(ps2 + n + ny), vld1q_f64(ps2 + n));
    const float64x2_t var =
        vsubq_f64(s2, vdivq_f64(vmulq_f64(s1, s1), nyv));
    const uint64x2_t live =
        vcgtq_f64(var, vmulq_f64(eps, vmaxq_f64(s2, ones)));
    const float64x2_t r =
        vdivq_f64(vld1q_f64(num + n), vmulq_f64(vsqrtq_f64(var), ynv));
    const uint64x2_t finite = vcltq_f64(vabsq_f64(r), inf);
    const uint64x2_t keep = vandq_u64(live, finite);
    vst1q_f64(out + n,
              vreinterpretq_f64_u64(
                  vandq_u64(vreinterpretq_u64_f64(r), keep)));
  }
  for (; n < n_out; ++n) {
    const double s1 = ps[n + ny] - ps[n];
    const double s2 = ps2[n + ny] - ps2[n];
    const double var = s2 - s1 * s1 / ny_d;
    if (degenerate_variance(var, s2)) {
      out[n] = 0.0;
    } else {
      const double r = num[n] / (std::sqrt(var) * y_norm);
      out[n] = std::isfinite(r) ? r : 0.0;
    }
  }
}

void normalize_windows_strided(const double* ps, const double* ps2,
                               std::size_t stride, std::size_t ny,
                               double y_norm, const double* num, double* out,
                               std::size_t n_out) {
  scalar::normalize_windows_strided(ps, ps2, stride, ny, y_norm, num, out,
                                    n_out);
}

std::size_t clamp_weight_argmax(const double* scores, const double* w,
                                std::size_t n) {
  // Scores and weights are finite here (normalization guard upstream),
  // and the comparisons below treat +/-0 as equal exactly like the scalar
  // strict-> loop, so the returned index is identical.
  if (n < 4) return scalar::clamp_weight_argmax(scores, w, n);
  const float64x2_t zero = vdupq_n_f64(0.0);
  float64x2_t best = vdupq_n_f64(-HUGE_VAL);
  float64x2_t best_idx = zero;
  float64x2_t idx = {0.0, 1.0};
  const float64x2_t two = vdupq_n_f64(2.0);
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    const float64x2_t s = vmaxq_f64(zero, vld1q_f64(scores + j));
    const float64x2_t biased = vmulq_f64(s, vld1q_f64(w + j));
    const uint64x2_t gt = vcgtq_f64(biased, best);
    best = vbslq_f64(gt, biased, best);
    best_idx = vbslq_f64(gt, idx, best_idx);
    idx = vaddq_f64(idx, two);
  }
  double vals[2];
  double idxs[2];
  vst1q_f64(vals, best);
  vst1q_f64(idxs, best_idx);
  double best_score = vals[0];
  std::size_t best_j = static_cast<std::size_t>(idxs[0]);
  const auto cand = static_cast<std::size_t>(idxs[1]);
  if (vals[1] > best_score || (vals[1] == best_score && cand < best_j)) {
    best_score = vals[1];
    best_j = cand;
  }
  for (; j < n; ++j) {
    const double s = std::max(scores[j], 0.0);
    const double biased = s * w[j];
    if (biased > best_score) {
      best_j = j;
      best_score = biased;
    }
  }
  return best_j;
}

void channel_sums(const double* data, std::size_t frames,
                  std::size_t channels, double* sums) {
  std::size_t c = 0;
  for (; c + 2 <= channels; c += 2) {
    float64x2_t acc = vdupq_n_f64(0.0);
    for (std::size_t nf = 0; nf < frames; ++nf) {
      acc = vaddq_f64(acc, vld1q_f64(data + nf * channels + c));
    }
    vst1q_f64(sums + c, acc);
  }
  for (; c < channels; ++c) {
    double acc = 0.0;
    for (std::size_t nf = 0; nf < frames; ++nf) acc += data[nf * channels + c];
    sums[c] = acc;
  }
}

void center_rows(const double* src, std::size_t frames, std::size_t channels,
                 const double* mu, double* dst) {
  if (channels == 1) {
    subtract_scalar(src, mu[0], dst, frames);
    return;
  }
  if (channels == 2) {
    const float64x2_t m = vld1q_f64(mu);
    for (std::size_t nf = 0; nf < frames; ++nf) {
      vst1q_f64(dst + nf * 2, vsubq_f64(vld1q_f64(src + nf * 2), m));
    }
    return;
  }
  for (std::size_t nf = 0; nf < frames; ++nf) {
    const double* s = src + nf * channels;
    double* d = dst + nf * channels;
    std::size_t c = 0;
    for (; c + 2 <= channels; c += 2) {
      vst1q_f64(d + c, vsubq_f64(vld1q_f64(s + c), vld1q_f64(mu + c)));
    }
    for (; c < channels; ++c) d[c] = s[c] - mu[c];
  }
}

void center_rows_reversed_energy(const double* src, std::size_t frames,
                                 std::size_t channels, const double* mu,
                                 double* dst, double* energy) {
  std::size_t c = 0;
  for (; c + 2 <= channels; c += 2) {
    const float64x2_t m = vld1q_f64(mu + c);
    float64x2_t acc = vld1q_f64(energy + c);
    for (std::size_t nf = 0; nf < frames; ++nf) {
      const float64x2_t d =
          vsubq_f64(vld1q_f64(src + nf * channels + c), m);
      vst1q_f64(dst + (frames - 1 - nf) * channels + c, d);
      acc = vaddq_f64(acc, vmulq_f64(d, d));
    }
    vst1q_f64(energy + c, acc);
  }
  for (; c < channels; ++c) {
    const double m = mu[c];
    double acc = energy[c];
    for (std::size_t nf = 0; nf < frames; ++nf) {
      const double x = src[nf * channels + c] - m;
      dst[(frames - 1 - nf) * channels + c] = x;
      acc += x * x;
    }
    energy[c] = acc;
  }
}

void prefix_sums_rows(const double* x, double* ps, double* ps2,
                      std::size_t frames, std::size_t channels) {
  std::size_t c = 0;
  for (; c + 2 <= channels; c += 2) {
    float64x2_t run = vdupq_n_f64(0.0);
    float64x2_t run2 = vdupq_n_f64(0.0);
    vst1q_f64(ps + c, run);
    vst1q_f64(ps2 + c, run2);
    for (std::size_t nf = 0; nf < frames; ++nf) {
      const float64x2_t v = vld1q_f64(x + nf * channels + c);
      run = vaddq_f64(run, v);
      run2 = vaddq_f64(run2, vmulq_f64(v, v));
      vst1q_f64(ps + (nf + 1) * channels + c, run);
      vst1q_f64(ps2 + (nf + 1) * channels + c, run2);
    }
  }
  for (; c < channels; ++c) {
    double run = 0.0;
    double run2 = 0.0;
    ps[c] = 0.0;
    ps2[c] = 0.0;
    for (std::size_t nf = 0; nf < frames; ++nf) {
      const double v = x[nf * channels + c];
      run += v;
      run2 += v * v;
      ps[(nf + 1) * channels + c] = run;
      ps2[(nf + 1) * channels + c] = run2;
    }
  }
}

void xcorr_valid_direct(const double* x, const double* y, std::size_t ny,
                        double* num, std::size_t n_out) {
  // No NEON body yet: the scalar loop is the bitwise reference.
  scalar::xcorr_valid_direct(x, y, ny, num, n_out);
}

// --- ULP-bounded reductions ---------------------------------------------

namespace {
inline double hsum(float64x2_t v) {
  return vgetq_lane_f64(v, 0) + vgetq_lane_f64(v, 1);
}
}  // namespace

double sum(const double* x, std::size_t n) {
  float64x2_t acc = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    acc = vaddq_f64(acc, vld1q_f64(x + i));
  }
  double total = hsum(acc);
  for (; i < n; ++i) total += x[i];
  return total;
}

double centered_energy(const double* x, double mu, std::size_t n) {
  const float64x2_t mv = vdupq_n_f64(mu);
  float64x2_t acc = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t d = vsubq_f64(vld1q_f64(x + i), mv);
    acc = vaddq_f64(acc, vmulq_f64(d, d));
  }
  double total = hsum(acc);
  for (; i < n; ++i) {
    const double d = x[i] - mu;
    total += d * d;
  }
  return total;
}

double subtract_scalar_energy(const double* src, double mu, double* dst,
                              std::size_t n) {
  const float64x2_t mv = vdupq_n_f64(mu);
  float64x2_t acc = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t d = vsubq_f64(vld1q_f64(src + i), mv);
    vst1q_f64(dst + i, d);
    acc = vaddq_f64(acc, vmulq_f64(d, d));
  }
  double total = hsum(acc);
  for (; i < n; ++i) {
    dst[i] = src[i] - mu;
    total += dst[i] * dst[i];
  }
  return total;
}

void pearson_accumulate(const double* u, const double* v, double mu,
                        double mv, std::size_t n, double* num, double* du2,
                        double* dv2) {
  const float64x2_t muv = vdupq_n_f64(mu);
  const float64x2_t mvv = vdupq_n_f64(mv);
  float64x2_t acc_n = vdupq_n_f64(0.0);
  float64x2_t acc_u = vdupq_n_f64(0.0);
  float64x2_t acc_v = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t du = vsubq_f64(vld1q_f64(u + i), muv);
    const float64x2_t dv = vsubq_f64(vld1q_f64(v + i), mvv);
    acc_n = vaddq_f64(acc_n, vmulq_f64(du, dv));
    acc_u = vaddq_f64(acc_u, vmulq_f64(du, du));
    acc_v = vaddq_f64(acc_v, vmulq_f64(dv, dv));
  }
  double a = hsum(acc_n);
  double b = hsum(acc_u);
  double c = hsum(acc_v);
  for (; i < n; ++i) {
    const double du = u[i] - mu;
    const double dv = v[i] - mv;
    a += du * dv;
    b += du * du;
    c += dv * dv;
  }
  *num += a;
  *du2 += b;
  *dv2 += c;
}

void prefix_sums(const double* x, double* ps, double* ps2, std::size_t n) {
  ps[0] = 0.0;
  ps2[0] = 0.0;
  float64x2_t run = vdupq_n_f64(0.0);
  float64x2_t run2 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t v = vld1q_f64(x + i);
    const float64x2_t out = vaddq_f64(run, inclusive_scan(v));
    vst1q_f64(ps + i + 1, out);
    run = vdupq_laneq_f64(out, 1);
    const float64x2_t out2 =
        vaddq_f64(run2, inclusive_scan(vmulq_f64(v, v)));
    vst1q_f64(ps2 + i + 1, out2);
    run2 = vdupq_laneq_f64(out2, 1);
  }
  for (; i < n; ++i) {
    ps[i + 1] = ps[i] + x[i];
    ps2[i + 1] = ps2[i] + x[i] * x[i];
  }
}

}  // namespace nsync::dsp::simd::neon

#endif  // NSYNC_SIMD_HAVE_NEON
