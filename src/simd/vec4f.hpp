// 4-wide single-precision SIMD wrapper over SSE: two interleaved complex
// values per register.
//
// The paper's convolution reaches ~90% SIMD efficiency with 128-bit SSE.
// Vec4f and Vec8f (simd/vec8f.hpp) expose one vocabulary under the same
// names, so the SIMD Part-2 kernels (core/batch_conv_simd.hpp) and the FFT
// column stages (core/batch_fft_stages.hpp) are each one template over the
// vector type. The one arithmetic difference is madd: multiply then add
// here, as the paper's Westmere target issues them, fused on AVX2.
//
// A bit-exactness note: the SSE adjoint (scatter) performs the scalar
// adjoint's multiplies and adds in the same order, so the two are bitwise
// identical (ScalarVsSimd.AdjointBitwiseIdentical); the SSE forward (gather)
// sums its window in lane order, so it agrees with the scalar forward to
// rounding.
#pragma once

#include <smmintrin.h>  // SSE4.1

namespace nufft::simd {

/// Value-semantic wrapper around __m128 (4 packed floats = 2 complex).
struct Vec4f {
  static constexpr int kComplex = 2;

  __m128 v;

  Vec4f() : v(_mm_setzero_ps()) {}
  explicit Vec4f(__m128 raw) : v(raw) {}
  explicit Vec4f(float splat) : v(_mm_set1_ps(splat)) {}
  Vec4f(float a, float b, float c, float d) : v(_mm_setr_ps(a, b, c, d)) {}

  static Vec4f zero() { return Vec4f(_mm_setzero_ps()); }
  static Vec4f loadu(const float* p) { return Vec4f(_mm_loadu_ps(p)); }
  static Vec4f load(const float* p) { return Vec4f(_mm_load_ps(p)); }
  /// (a, b) in every complex lane: a complex value's broadcast, or a sign
  /// pattern such as (−im, im).
  static Vec4f pairs(float a, float b) { return Vec4f(a, b, a, b); }

  void storeu(float* p) const { _mm_storeu_ps(p, v); }
  void store(float* p) const { _mm_store_ps(p, v); }

  friend Vec4f operator+(Vec4f a, Vec4f b) { return Vec4f(_mm_add_ps(a.v, b.v)); }
  friend Vec4f operator-(Vec4f a, Vec4f b) { return Vec4f(_mm_sub_ps(a.v, b.v)); }
  friend Vec4f operator*(Vec4f a, Vec4f b) { return Vec4f(_mm_mul_ps(a.v, b.v)); }

  float operator[](int lane) const {
    alignas(16) float tmp[4];
    _mm_store_ps(tmp, v);
    return tmp[lane];
  }

  /// Swap the two floats within each (re, im) pair: (a1, a0, a3, a2).
  Vec4f swap_pairs() const { return Vec4f(_mm_shuffle_ps(v, v, _MM_SHUFFLE(2, 3, 0, 1))); }

  /// Fold the two complex lanes into one: re = a0 + a2, im = a1 + a3.
  void hsum_complex(float& re, float& im) const {
    const __m128 s = _mm_add_ps(v, _mm_movehl_ps(v, v));
    re = _mm_cvtss_f32(s);
    im = _mm_cvtss_f32(_mm_shuffle_ps(s, s, 0x55));
  }
};

/// a*b + c with separate multiply and add (the paper's Westmere target has
/// no fused unit; it dual-issues mul and add to different pipes).
inline Vec4f madd(Vec4f a, Vec4f b, Vec4f c) { return a * b + c; }

}  // namespace nufft::simd
