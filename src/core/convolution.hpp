// Convolution interpolation between the non-uniform samples and the
// oversampled Cartesian grid (paper Fig. 2).
//
// Part 1: for each sample, derive per-dimension neighbour coordinates
// kx/ky/kz (wrapped mod M) and interpolation weights winX/winY/winZ from the
// kernel LUT or Horner fit. The sample loop computes it across samples,
// four per call in SSE lanes (detail::window_block, core/window_span.hpp);
// compute_window below is the per-sample path, its bitwise reference and
// the entry of the baselines and tests.
//
// Part 2: the separable convolution itself —
//   forward  (gather):  raw[p]  += Σ f[kx,ky,kz]·winX·winY·winZ
//   adjoint (scatter):  f[kx,ky,kz] += raw[p]·winX·winY·winZ
//
// Each backend has one Part-2 kernel family. The scalar kernels below are
// the paper's "Base" variant (Fig. 13), pinned to scalar codegen. The SIMD
// kernels (core/batch_conv.hpp) follow the paper §III-C: the innermost loop
// runs over *consecutive grid cells* along the last dimension, two (SSE) or
// four (AVX2) interleaved complex values per register with pair-duplicated
// weights, over a compile-time group of G batch slices — a single apply is
// G = 1. Samples whose window wraps around the periodic grid boundary in the
// last dimension take an indexed path (a vanishing fraction of realistic
// trajectories, whose energy concentrates mid-grid).
//
// Bit-exactness: every adjoint kernel adds val·(w·wxy) per cell, with each
// cell's weight w·wxy rounded on its own, so the scalar and SSE adjoints are
// bitwise identical. The SIMD gathers keep vector accumulators (and AVX2
// uses FMA), so forwards match scalar only to rounding.
#pragma once

#include <array>

#include "common/types.hpp"
#include "core/grid.hpp"
#include "kernels/horner.hpp"
#include "kernels/lut.hpp"

namespace nufft {

/// Per-sample interpolation window (Fig. 2 Part 1 output).
struct WindowBuf {
  static constexpr int kMaxLen = 20;  // supports W <= 9.5

  alignas(64) float win[3][kMaxLen];       // kernel weights per dimension
  alignas(64) float win_dup[2 * kMaxLen];  // last-dim weights duplicated per
                                           // complex lane: (w0,w0,w1,w1,...)
  alignas(64) index_t idx[3][kMaxLen];     // wrapped neighbour indices
  index_t start[3];                        // unwrapped first neighbour
  int len[3];
  bool inner_contiguous;  // last-dim window does not wrap
};

/// Part 1 for one sample at coordinates coord[0..dim). When `fill_dup` is
/// set (SIMD Part 2 follows), the duplicated last-dim weight array is
/// populated as well.
///
/// Invariants (checked in debug/sanitizer builds):
///   * len[d] ≤ 2W+1 ≤ kMaxLen — the candidate window is trimmed so every
///     neighbour satisfies |nx − k| ≤ W in float, the same expression the
///     weight lookup evaluates (float rounding of k ± W would otherwise
///     admit a 2W+2-wide window for half-integer coordinates).
///   * idx[d][i] ∈ [0, m) for ANY grid extent m ≥ 1: indices wrap fully
///     modulo m, so a window wider than the grid (2⌈W⌉+1 > m — reachable
///     only through the baselines, since plan construction rejects it)
///     revisits cells instead of scribbling out of range; that is the
///     correct periodic convolution.
void compute_window(const GridDesc& g, const kernels::KernelLut& lut, const float* coord,
                    int dim, bool fill_dup, WindowBuf& wb);

/// Non-owning view over whichever weight evaluator the plan selected:
/// exactly one of `lut` / `horner` is set. The LUT is the paper's path; the
/// Horner evaluator computes the whole last-dim weight row from one shared
/// abscissa (see kernels/horner.hpp) and is what tolerance-driven plans use
/// for the ES kernel at tight accuracies, where a float LUT's interpolation
/// error would dominate.
struct WindowEval {
  const kernels::KernelLut* lut = nullptr;
  const kernels::KernelHorner* horner = nullptr;
  float radius() const { return lut != nullptr ? lut->radius() : horner->radius(); }
};

/// Part 1 against either evaluator; identical contract to the LUT overload.
/// The sample loop's window block (detail::window_block in
/// core/window_span.hpp) reproduces this per-sample path bitwise.
void compute_window(const GridDesc& g, const WindowEval& ev, const float* coord, int dim,
                    bool fill_dup, WindowBuf& wb);

/// Part 2, adjoint (scatter): add val·weights into the grid.
template <int DIM>
void adj_scatter_scalar(cfloat* grid, const std::array<index_t, 3>& strides,
                        const WindowBuf& wb, cfloat val);

/// Part 2, forward (gather): return the weighted sum of grid neighbours.
template <int DIM>
cfloat fwd_gather_scalar(const cfloat* grid, const std::array<index_t, 3>& strides,
                         const WindowBuf& wb);

}  // namespace nufft
