// Internal: the column-interleaved Stockham stages of BatchFft, written once
// over the vector type V (simd::Vec4f or simd::Vec8f; see batch_fft.hpp for
// the layout). batch_fft.cpp runs the Vec4f instantiation; the AVX2 entry
// points below run the Vec8f one from batch_fft_avx2.cpp, the only TU
// compiled with -mavx2 (gate on avx2_available()). That TU also takes
// -ffp-contract=off, so the scalar twiddle powers w², w³ round as here and
// in Fft1d, and the only fused operations are the explicit madd ones.
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace nufft {

namespace detail {

// Complex multiply of V::kComplex packed (re, im) pairs by one twiddle held
// as wr = splat(w.re) and wi = pairs(−w.im, w.im):
//   x·w = x·wr + swap(x)·wi.
template <class V>
inline V cmul(V x, V wr, V wi) {
  return madd(x, wr, x.swap_pairs() * wi);
}

// One radix-2 Stockham stage over column-interleaved rows. `sc` is the
// sub-transform stride in complex elements (s · cols); the q loop covers the
// sc interleaved columns one vector at a time, so cols must be a multiple
// of V::kComplex.
template <class V>
void stage2_cols(const cfloat* src, cfloat* dst, std::size_t nn, std::size_t sc,
                 const cfloat* tw) {
  const std::size_t m = nn / 2;
  for (std::size_t p = 0; p < m; ++p) {
    const cfloat w = tw[p];
    const V wr(w.real());
    const V wi = V::pairs(-w.imag(), w.imag());
    const auto* a = reinterpret_cast<const float*>(src + sc * p);
    const auto* b = reinterpret_cast<const float*>(src + sc * (p + m));
    auto* lo = reinterpret_cast<float*>(dst + sc * (2 * p));
    auto* hi = reinterpret_cast<float*>(dst + sc * (2 * p + 1));
    const std::size_t nf = 2 * sc;
    for (std::size_t q = 0; q < nf; q += 2 * V::kComplex) {
      const V u = V::loadu(a + q);
      const V v = V::loadu(b + q);
      (u + v).storeu(lo + q);
      cmul(u - v, wr, wi).storeu(hi + q);
    }
  }
}

// One radix-4 Stockham stage over column-interleaved rows; mirrors
// fft1d.cpp's stockham_stage4 with the stride scaled by the column count.
template <class V>
void stage4_cols(const cfloat* src, cfloat* dst, std::size_t nn, std::size_t sc,
                 const cfloat* tw, int sign) {
  const std::size_t m = nn / 4;
  const V jpat = sign < 0 ? V::pairs(1.0f, -1.0f) : V::pairs(-1.0f, 1.0f);
  for (std::size_t p = 0; p < m; ++p) {
    const cfloat w1 = tw[p];
    const cfloat w2 = w1 * w1;
    const cfloat w3 = w2 * w1;
    const V w1r(w1.real()), w1i = V::pairs(-w1.imag(), w1.imag());
    const V w2r(w2.real()), w2i = V::pairs(-w2.imag(), w2.imag());
    const V w3r(w3.real()), w3i = V::pairs(-w3.imag(), w3.imag());
    const auto* a = reinterpret_cast<const float*>(src + sc * p);
    const auto* b = reinterpret_cast<const float*>(src + sc * (p + m));
    const auto* c = reinterpret_cast<const float*>(src + sc * (p + 2 * m));
    const auto* d = reinterpret_cast<const float*>(src + sc * (p + 3 * m));
    auto* y0 = reinterpret_cast<float*>(dst + sc * (4 * p));
    auto* y1 = reinterpret_cast<float*>(dst + sc * (4 * p + 1));
    auto* y2 = reinterpret_cast<float*>(dst + sc * (4 * p + 2));
    auto* y3 = reinterpret_cast<float*>(dst + sc * (4 * p + 3));
    const std::size_t nf = 2 * sc;
    for (std::size_t q = 0; q < nf; q += 2 * V::kComplex) {
      const V A = V::loadu(a + q);
      const V B = V::loadu(b + q);
      const V C = V::loadu(c + q);
      const V D = V::loadu(d + q);
      const V apc = A + C;
      const V amc = A - C;
      const V bpd = B + D;
      const V bmd = B - D;
      const V jb = bmd.swap_pairs() * jpat;  // sign·i·(b−d)
      (apc + bpd).storeu(y0 + q);
      cmul(amc + jb, w1r, w1i).storeu(y1 + q);
      cmul(apc - bpd, w2r, w2i).storeu(y2 + q);
      cmul(amc - jb, w3r, w3i).storeu(y3 + q);
    }
  }
}

}  // namespace detail

/// The Vec8f stages; the column count must be a multiple of 4.
void stage2_cols_avx2(const cfloat* src, cfloat* dst, std::size_t nn, std::size_t sc,
                      const cfloat* tw);
void stage4_cols_avx2(const cfloat* src, cfloat* dst, std::size_t nn, std::size_t sc,
                      const cfloat* tw, int sign);

}  // namespace nufft
