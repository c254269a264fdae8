// This translation unit is compiled with -mavx2 -mfma (see src/CMakeLists).
#include "core/batch_fft_stages.hpp"

#include "simd/vec8f.hpp"

namespace nufft {

namespace {

using simd::Vec8f;
using simd::fmadd;

inline Vec8f cmul8(Vec8f x, Vec8f wr, Vec8f wi) { return fmadd(x, wr, x.swap_pairs() * wi); }

inline Vec8f wi_pattern8(float im) {
  return Vec8f(_mm256_setr_ps(-im, im, -im, im, -im, im, -im, im));
}

}  // namespace

void stage2_cols_avx2(const cfloat* src, cfloat* dst, std::size_t nn, std::size_t sc,
                      const cfloat* tw) {
  const std::size_t m = nn / 2;
  for (std::size_t p = 0; p < m; ++p) {
    const cfloat w = tw[p];
    const Vec8f wr(w.real());
    const Vec8f wi = wi_pattern8(w.imag());
    const auto* a = reinterpret_cast<const float*>(src + sc * p);
    const auto* b = reinterpret_cast<const float*>(src + sc * (p + m));
    auto* lo = reinterpret_cast<float*>(dst + sc * (2 * p));
    auto* hi = reinterpret_cast<float*>(dst + sc * (2 * p + 1));
    const std::size_t nf = 2 * sc;
    for (std::size_t q = 0; q < nf; q += 8) {
      const Vec8f u = Vec8f::loadu(a + q);
      const Vec8f v = Vec8f::loadu(b + q);
      (u + v).storeu(lo + q);
      cmul8(u - v, wr, wi).storeu(hi + q);
    }
  }
}

void stage4_cols_avx2(const cfloat* src, cfloat* dst, std::size_t nn, std::size_t sc,
                      const cfloat* tw, int sign) {
  const std::size_t m = nn / 4;
  const Vec8f jpat =
      sign < 0 ? Vec8f(_mm256_setr_ps(1.0f, -1.0f, 1.0f, -1.0f, 1.0f, -1.0f, 1.0f, -1.0f))
               : Vec8f(_mm256_setr_ps(-1.0f, 1.0f, -1.0f, 1.0f, -1.0f, 1.0f, -1.0f, 1.0f));
  for (std::size_t p = 0; p < m; ++p) {
    const cfloat w1 = tw[p];
    const cfloat w2 = w1 * w1;
    const cfloat w3 = w2 * w1;
    const Vec8f w1r(w1.real()), w1i = wi_pattern8(w1.imag());
    const Vec8f w2r(w2.real()), w2i = wi_pattern8(w2.imag());
    const Vec8f w3r(w3.real()), w3i = wi_pattern8(w3.imag());
    const auto* a = reinterpret_cast<const float*>(src + sc * p);
    const auto* b = reinterpret_cast<const float*>(src + sc * (p + m));
    const auto* c = reinterpret_cast<const float*>(src + sc * (p + 2 * m));
    const auto* d = reinterpret_cast<const float*>(src + sc * (p + 3 * m));
    auto* y0 = reinterpret_cast<float*>(dst + sc * (4 * p));
    auto* y1 = reinterpret_cast<float*>(dst + sc * (4 * p + 1));
    auto* y2 = reinterpret_cast<float*>(dst + sc * (4 * p + 2));
    auto* y3 = reinterpret_cast<float*>(dst + sc * (4 * p + 3));
    const std::size_t nf = 2 * sc;
    for (std::size_t q = 0; q < nf; q += 8) {
      const Vec8f A = Vec8f::loadu(a + q);
      const Vec8f B = Vec8f::loadu(b + q);
      const Vec8f C = Vec8f::loadu(c + q);
      const Vec8f D = Vec8f::loadu(d + q);
      const Vec8f apc = A + C;
      const Vec8f amc = A - C;
      const Vec8f bpd = B + D;
      const Vec8f bmd = B - D;
      const Vec8f jb = bmd.swap_pairs() * jpat;  // sign·i·(b−d)
      (apc + bpd).storeu(y0 + q);
      cmul8(amc + jb, w1r, w1i).storeu(y1 + q);
      cmul8(apc - bpd, w2r, w2i).storeu(y2 + q);
      cmul8(amc - jb, w3r, w3i).storeu(y3 + q);
    }
  }
}

}  // namespace nufft
