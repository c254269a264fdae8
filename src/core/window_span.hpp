// Part 1 of the convolution (paper Fig. 2): the window geometry primitives
// and the one window template, detail::window_spec, that both
// compute_window and every dispatch variant (core/conv_variants.hpp)
// instantiate.
//
// A constexpr-W variant and its runtime-W sibling MUST produce
// byte-identical windows for the same (k, W, m): the dispatch registry's
// bit-match contract (tests/test_dispatch.cpp) compares them bitwise, and the
// float-rounding trim below is exactly the hazard that diverges first when
// the expression is re-derived instead of shared. Keep this header free of
// anything that could be compiled differently across translation units (no
// ISA-specific code) — every including TU is built at the baseline ISA, so
// the a·b+c shapes here and in the Horner row (kernels/horner.hpp, one
// SSE multiply then one add per degree step) never contract into FMA. Both
// window routes, a constexpr W's inlined horner_rows and a runtime W's
// KernelHorner::eval_window, run that same row.
#pragma once

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/types.hpp"
#include "core/convolution.hpp"
#include "kernels/horner.hpp"

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

/// Part 1 for one sample with compile-time dim and evaluator. W2 = 2W folds
/// the width into a constant; W2 = 0 reads W from the evaluator at run time
/// (the runtime-W variants and compute_window). The Horner row is the one
/// register-resident evaluator on every backend (kernels/horner.hpp): a
/// constexpr W inlines it at its compile-time row count, a runtime W
/// reaches it through KernelHorner::eval_window. Always inlined: each
/// variant instantiates it at several call sites, and a call per sample
/// costs the small-W loops measurably.
template <int DIM, int W2, bool HORNER>
[[gnu::always_inline]] inline void window_spec(const GridDesc& g, const WindowEval& ev,
                                               const float* coord, bool fill_dup,
                                               WindowBuf& wb) {
  // Exact for half-integer widths, so both branches yield the same float.
  const float W = W2 != 0 ? static_cast<float>(W2) * 0.5f : ev.radius();
  for (int d = 0; d < DIM; ++d) {
    const float k = coord[d];
    const WindowSpan sp = window_span(k, W);
    NUFFT_DASSERT(sp.len <= WindowBuf::kMaxLen);
    const index_t m = g.m[static_cast<std::size_t>(d)];
    wb.start[d] = sp.x1;
    wb.len[d] = sp.len;
    if constexpr (!HORNER) {
      const kernels::KernelLut& lut = *ev.lut;
      for (int i = 0; i < sp.len; ++i) {
        const index_t nx = sp.x1 + i;
        wb.idx[d][i] = wrap_grid_index(nx, m);
        wb.win[d][i] = lut(std::fabs(static_cast<float>(nx) - k));
      }
    } else {
      for (int i = 0; i < sp.len; ++i) wb.idx[d][i] = wrap_grid_index(sp.x1 + i, m);
      // Shared abscissa z = x1 − k + W ∈ [0, 1]; one row evaluation covers
      // the whole window (see kernels/horner.hpp).
      const float z = static_cast<float>(sp.x1) - k + W;
      if constexpr (W2 != 0) {
        constexpr int kRowVectors = kernels::KernelHorner::stride_for(W2) / 4;
        kernels::horner_rows<kRowVectors>(*ev.horner, z, sp.len, wb.win[d]);
      } else {
        ev.horner->eval_window(z, sp.len, wb.win[d]);
      }
    }
  }
  constexpr int last = DIM - 1;
  wb.inner_contiguous = wb.start[last] >= 0 &&
                        wb.start[last] + wb.len[last] <= g.m[static_cast<std::size_t>(last)];
  if (fill_dup) {
    for (int i = 0; i < wb.len[last]; ++i) {
      wb.win_dup[2 * i] = wb.win[last][i];
      wb.win_dup[2 * i + 1] = wb.win[last][i];
    }
  }
}

}  // namespace detail

}  // namespace nufft
