// 8-wide single-precision SIMD wrapper over AVX2 — the "wider SIMD on
// future many-core architectures" extension the paper anticipates (§I).
// It has Vec4f's vocabulary (simd/vec4f.hpp), so the SIMD templates
// instantiate at either width.
//
// This header must only be included from translation units compiled with
// -mavx2 -mfma -ffp-contract=off (src/CMakeLists.txt). Unlike Vec4f, madd is
// fused: Haswell-class cores pair FMA pipes with the wider registers, so the
// faithful "what would this code do on newer hardware" port uses them. With
// contraction off, those explicit FMAs are the only fused operations in the
// AVX2 kernels. AVX2 results therefore match the SSE ones to rounding, not
// bitwise.
#pragma once

#include <immintrin.h>

namespace nufft::simd {

/// Value-semantic wrapper around __m256 (8 packed floats = 4 complex).
struct Vec8f {
  static constexpr int kComplex = 4;

  __m256 v;

  Vec8f() : v(_mm256_setzero_ps()) {}
  explicit Vec8f(__m256 raw) : v(raw) {}
  explicit Vec8f(float splat) : v(_mm256_set1_ps(splat)) {}

  static Vec8f zero() { return Vec8f(_mm256_setzero_ps()); }
  static Vec8f loadu(const float* p) { return Vec8f(_mm256_loadu_ps(p)); }
  static Vec8f load(const float* p) { return Vec8f(_mm256_load_ps(p)); }
  /// (a, b) in every complex lane: a complex value's broadcast, or a sign
  /// pattern such as (−im, im).
  static Vec8f pairs(float a, float b) {
    return Vec8f(_mm256_blend_ps(_mm256_set1_ps(a), _mm256_set1_ps(b), 0b10101010));
  }

  void storeu(float* p) const { _mm256_storeu_ps(p, v); }

  friend Vec8f operator+(Vec8f a, Vec8f b) { return Vec8f(_mm256_add_ps(a.v, b.v)); }
  friend Vec8f operator-(Vec8f a, Vec8f b) { return Vec8f(_mm256_sub_ps(a.v, b.v)); }
  friend Vec8f operator*(Vec8f a, Vec8f b) { return Vec8f(_mm256_mul_ps(a.v, b.v)); }

  /// Swap the (re, im) halves of every complex lane: (a,b,c,d,...) →
  /// (b,a,d,c,...). In-lane permute — complex pairs never straddle the
  /// 128-bit boundary.
  Vec8f swap_pairs() const { return Vec8f(_mm256_permute_ps(v, _MM_SHUFFLE(2, 3, 0, 1))); }

  /// Fold the four complex lanes into one:
  /// re = (a0 + a4) + (a2 + a6), im = (a1 + a5) + (a3 + a7).
  void hsum_complex(float& re, float& im) const {
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 s = _mm_add_ps(lo, hi);           // 2 complex
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));  // 1 complex in lanes 0,1
    re = _mm_cvtss_f32(s);
    im = _mm_cvtss_f32(_mm_shuffle_ps(s, s, 0x55));
  }
};

/// Fused a*b + c.
inline Vec8f madd(Vec8f a, Vec8f b, Vec8f c) { return Vec8f(_mm256_fmadd_ps(a.v, b.v, c.v)); }

}  // namespace nufft::simd
