// Part 1 of the convolution (paper Fig. 2): the window geometry primitives
// and the sample loop's Part 1, detail::window_block, which fills the
// windows of four consecutive plan-order samples at once with one sample
// per SSE lane — the paper's across-point Part 1 (§III-C), beside the
// within-point SIMD Part 2.
//
// Bit-identity contract: each lane runs exactly the float operations of the
// per-sample reference, compute_window (core/convolution.cpp), in its order
// — the same ceil/floor, the same float-rounding trim, the same Horner
// multiply-then-add steps and the same LUT interpolation — so every weight,
// index and output of the sample loop equals the per-sample path bitwise
// (WindowBlock.MatchesWindowSpecBitwise pins the block to it, and the
// dispatch suite every loop to a per-sample loop). Keep this header free of
// anything that could be compiled differently across translation units:
// every including TU is built at the baseline ISA, so the a·b+c shapes here
// never contract into FMA.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <smmintrin.h>  // SSE4.1

#include "common/error.hpp"
#include "common/types.hpp"
#include "core/convolution.hpp"
#include "kernels/horner.hpp"
#include "kernels/lut.hpp"

namespace nufft {

/// First neighbour and length of the kernel window of a sample at
/// fractional grid coordinate k with support radius W.
struct WindowSpan {
  index_t x1;  // first (unwrapped) neighbour, ceil(k − W) after the trim
  int len;     // neighbour count, ≤ 2W+1 in float arithmetic
};

/// Candidate window [ceil(k−W), floor(k+W)] with the float-rounding trim.
///
/// Float rounding of k ± W can admit a neighbour just outside the kernel
/// support (|nx − k| > W): for half-integer coordinates that makes the
/// window 2W+2 wide, which overruns WindowBuf::kMaxLen at W = 9.5, reads
/// the LUT past its guard entries, and — on the privatized path — indexes
/// one cell past the task's write box. Trim with the same float expression
/// the weight lookup evaluates, so len ≤ 2W+1 holds in the arithmetic that
/// matters.
inline WindowSpan window_span(float k, float W) {
  auto x1 = static_cast<index_t>(std::ceil(k - W));
  auto x2 = static_cast<index_t>(std::floor(k + W));
  if (std::fabs(static_cast<float>(x1) - k) > W) ++x1;
  if (std::fabs(static_cast<float>(x2) - k) > W) --x2;
  return {x1, std::max(0, static_cast<int>(x2 - x1 + 1))};
}

/// Wrap an unwrapped neighbour coordinate into [0, m) for ANY m ≥ 1.
///
/// One conditional wrap covers |nx| < 2m, which holds whenever the window
/// fits the grid (2⌈W⌉+1 ≤ m — enforced at plan construction). The
/// baselines accept arbitrary GridDescs, so a window wider than the grid
/// falls back to a full modular wrap: the kernel tail then legitimately
/// revisits cells, which is the correct periodic convolution.
inline index_t wrap_grid_index(index_t nx, index_t m) {
  index_t wrapped = nx;
  if (wrapped < 0) wrapped += m;
  if (wrapped >= m) wrapped -= m;
  if (wrapped < 0 || wrapped >= m) {
    wrapped = nx % m;
    if (wrapped < 0) wrapped += m;
  }
  return wrapped;
}

namespace detail {

/// Samples per window_block: one per SSE lane.
inline constexpr int kBlockLanes = 4;

/// Store segments (or taps) s0..s0+3 of dimension d into the four lanes'
/// windows: rows[j] holds segment s0 + j of every lane, so a 4×4 transpose
/// turns them into each lane's four weights. With `dup` set (the last
/// dimension of a SIMD Part 2) the pair-duplicated copy is stored as well.
/// s0 ≤ kMaxLen − 4, so the group stays inside win[d] and win_dup.
[[gnu::always_inline]] inline void store_rows(__m128 (&rows)[4], int d, int s0, bool dup,
                                              WindowBuf* wbs) {
  _MM_TRANSPOSE4_PS(rows[0], rows[1], rows[2], rows[3]);
  for (int l = 0; l < kBlockLanes; ++l) {
    _mm_store_ps(wbs[l].win[d] + s0, rows[l]);
    if (dup) {
      _mm_store_ps(wbs[l].win_dup + 2 * s0, _mm_unpacklo_ps(rows[l], rows[l]));
      _mm_store_ps(wbs[l].win_dup + 2 * s0 + 4, _mm_unpackhi_ps(rows[l], rows[l]));
    }
  }
}

/// Part 1 of the sample loop: the windows of the `lanes` (1–4) plan-order
/// samples first, first + 1, … of `coords` into wbs[0, 4), sample l in SSE
/// lane l. Lanes past `lanes` repeat the last valid coordinate; their
/// windows are written too (wbs must hold four) and are the caller's to
/// ignore. W2 = 2W folds the width into a constant; W2 = 0 reads W from the
/// evaluator at run time. With `fill_dup` set (SIMD Part 2 follows) the
/// duplicated last-dimension weights are filled as well.
///
/// Per dimension, in lanes: the span and trim of window_span, then the
/// weights of every segment (Horner) or tap (LUT) in groups of four, up to
/// the longest window of the block; a group's values past a lane's len are
/// computed and discarded. Exactness: the window ends are integer-valued
/// floats, so the trim's x1 + 1 / x2 − 1, the tap abscissae x1 + i and the
/// int32 conversions are exact while |x1|, |x2| < 2^24 — plan coordinates
/// lie in [0, m), far inside that bound.
template <int DIM, int W2, bool HORNER>
[[gnu::always_inline]] inline void window_block(const GridDesc& g, const WindowEval& ev,
                                                const std::array<const float*, 3>& coords,
                                                index_t first, int lanes, bool fill_dup,
                                                WindowBuf* wbs) {
  NUFFT_DASSERT(1 <= lanes && lanes <= kBlockLanes);
  // Exact for half-integer widths, so both branches yield the same float.
  const float w = W2 != 0 ? static_cast<float>(W2) * 0.5f : ev.radius();
  // len ≤ 2W + 1 in float arithmetic.
  constexpr int kMaxTaps = W2 != 0 ? W2 + 1 : WindowBuf::kMaxLen;
  static_assert(kMaxTaps <= WindowBuf::kMaxLen);
  const __m128 W = _mm_set1_ps(w);
  const __m128 one = _mm_set1_ps(1.0f);
  const __m128 abs_mask = _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
  __m128 k[DIM];
  __m128 x1[DIM];
  alignas(16) std::int32_t start[DIM][kBlockLanes];
  alignas(16) std::int32_t len[DIM][kBlockLanes];
  __m128i longest = _mm_setzero_si128();
  for (int d = 0; d < DIM; ++d) {
    const float* c = coords[static_cast<std::size_t>(d)] + first;
    k[d] = lanes == kBlockLanes
               ? _mm_loadu_ps(c)
               : _mm_setr_ps(c[0], c[std::min(1, lanes - 1)], c[std::min(2, lanes - 1)],
                             c[lanes - 1]);
    const auto outside = [&](__m128 x) {
      return _mm_cmpgt_ps(_mm_and_ps(_mm_sub_ps(x, k[d]), abs_mask), W);
    };
    __m128 lo = _mm_round_ps(_mm_sub_ps(k[d], W), _MM_FROUND_TO_POS_INF | _MM_FROUND_NO_EXC);
    __m128 hi = _mm_round_ps(_mm_add_ps(k[d], W), _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
    lo = _mm_add_ps(lo, _mm_and_ps(outside(lo), one));
    hi = _mm_sub_ps(hi, _mm_and_ps(outside(hi), one));
    x1[d] = lo;
    const __m128i lo_i = _mm_cvttps_epi32(lo);
    const __m128i n = _mm_max_epi32(
        _mm_sub_epi32(_mm_cvttps_epi32(hi), _mm_sub_epi32(lo_i, _mm_set1_epi32(1))),
        _mm_setzero_si128());
    _mm_store_si128(reinterpret_cast<__m128i*>(start[d]), lo_i);
    _mm_store_si128(reinterpret_cast<__m128i*>(len[d]), n);
    longest = _mm_max_epi32(longest, n);
  }
  longest = _mm_max_epi32(longest, _mm_shuffle_epi32(longest, _MM_SHUFFLE(1, 0, 3, 2)));
  longest = _mm_max_epi32(longest, _mm_shuffle_epi32(longest, _MM_SHUFFLE(2, 3, 0, 1)));
  const int ntaps = _mm_cvtsi128_si32(longest);
  NUFFT_DASSERT(ntaps <= kMaxTaps);

  if constexpr (HORNER) {
    // One register chain per segment and lane, the DIM dimensions of a
    // group sharing each broadcast coefficient: acc = c₀, then acc·t + c_p,
    // a multiply and then an add — per lane, the recurrence of
    // KernelHorner::eval_window. Coefficients past segments() are the
    // table's zero padding (its stride is a multiple of 8).
    const kernels::KernelHorner& h = *ev.horner;
    const float* coef = h.coefficients();
    const auto stride = static_cast<std::size_t>(h.stride());
    __m128 t[DIM];
    for (int d = 0; d < DIM; ++d) {
      const __m128 z = _mm_add_ps(_mm_sub_ps(x1[d], k[d]), W);
      const __m128 zc = _mm_max_ps(_mm_min_ps(z, one), _mm_setzero_ps());
      t[d] = _mm_sub_ps(_mm_mul_ps(_mm_set1_ps(2.0f), zc), one);
    }
    for (int s0 = 0; s0 < std::min(ntaps, kMaxTaps); s0 += 4) {
      __m128 acc[DIM][4];
      for (int j = 0; j < 4; ++j) {
        const __m128 c0 = _mm_set1_ps(coef[s0 + j]);
        for (int d = 0; d < DIM; ++d) acc[d][j] = c0;
      }
      for (int p = 1; p <= h.degree(); ++p) {
        const float* row = coef + static_cast<std::size_t>(p) * stride + s0;
        for (int j = 0; j < 4; ++j) {
          const __m128 cp = _mm_set1_ps(row[j]);
          for (int d = 0; d < DIM; ++d) acc[d][j] = _mm_add_ps(_mm_mul_ps(acc[d][j], t[d]), cp);
        }
      }
      for (int d = 0; d < DIM; ++d) store_rows(acc[d], d, s0, fill_dup && d == DIM - 1, wbs);
    }
  } else {
    // KernelLut::operator() at |x1 + i − k| per lane. The two table reads
    // stay per lane; a tap past a lane's len clamps its index to the table,
    // and its value is discarded.
    const kernels::KernelLut& lut = *ev.lut;
    const float* table = lut.table();
    const __m128 scale = _mm_set1_ps(lut.scale());
    const __m128i last = _mm_set1_epi32(static_cast<std::int32_t>(lut.table_size()) - 2);
    for (int s0 = 0; s0 < std::min(ntaps, kMaxTaps); s0 += 4) {
      for (int d = 0; d < DIM; ++d) {
        __m128 rows[4];
        for (int j = 0; j < 4; ++j) {
          const __m128 nx = _mm_add_ps(x1[d], _mm_set1_ps(static_cast<float>(s0 + j)));
          const __m128 x = _mm_mul_ps(_mm_and_ps(_mm_sub_ps(nx, k[d]), abs_mask), scale);
          const __m128i i = _mm_cvttps_epi32(x);
          const __m128 frac = _mm_sub_ps(x, _mm_cvtepi32_ps(i));
          alignas(16) std::int32_t at[4];
          _mm_store_si128(reinterpret_cast<__m128i*>(at), _mm_min_epi32(i, last));
          const __m128 lo = _mm_setr_ps(table[at[0]], table[at[1]], table[at[2]], table[at[3]]);
          const __m128 hi = _mm_setr_ps(table[at[0] + 1], table[at[1] + 1], table[at[2] + 1],
                                        table[at[3] + 1]);
          rows[j] = _mm_add_ps(lo, _mm_mul_ps(_mm_sub_ps(hi, lo), frac));
        }
        store_rows(rows, d, s0, fill_dup && d == DIM - 1, wbs);
      }
    }
  }

  // Geometry and neighbour indices per lane. An interior window (0 ≤ x1,
  // x1 + len ≤ m) cannot wrap, so its indices are the ramp x1 + i, written
  // in pairs (len ≤ kMaxLen, which is even); a window that wraps keeps
  // wrap_grid_index per tap.
  constexpr int last = DIM - 1;
  for (int l = 0; l < kBlockLanes; ++l) {
    WindowBuf& wb = wbs[l];
    for (int d = 0; d < DIM; ++d) {
      const index_t x = start[d][l];
      const int n = len[d][l];
      const index_t m = g.m[static_cast<std::size_t>(d)];
      wb.start[d] = x;
      wb.len[d] = n;
      index_t* idx = wb.idx[d];
      if (x >= 0 && x + n <= m) {
        __m128i ramp = _mm_add_epi64(_mm_set1_epi64x(x), _mm_set_epi64x(1, 0));
        for (int i = 0; i < n; i += 2) {
          _mm_store_si128(reinterpret_cast<__m128i*>(idx + i), ramp);
          ramp = _mm_add_epi64(ramp, _mm_set1_epi64x(2));
        }
      } else {
        for (int i = 0; i < n; ++i) idx[i] = wrap_grid_index(x + i, m);
      }
    }
    wb.inner_contiguous = wb.start[last] >= 0 &&
                          wb.start[last] + wb.len[last] <= g.m[static_cast<std::size_t>(last)];
  }
}

}  // namespace detail

}  // namespace nufft
