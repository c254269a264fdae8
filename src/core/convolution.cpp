#include "core/convolution.hpp"

#include <cmath>

#include "common/error.hpp"
#include "core/batch_conv.hpp"
#include "core/window_span.hpp"

// The scalar Part-2 kernels are the reference point of the paper's SIMD
// study (Fig. 13): they must execute genuinely scalar instructions, exactly
// like the 2012 scalar baseline, or the measured "SIMD speedup" silently
// compares hand-SSE against compiler-SSE. Pin their codegen.
#if defined(__GNUC__) && !defined(__clang__)
#define NUFFT_SCALAR_CODEGEN __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#else
#define NUFFT_SCALAR_CODEGEN
#endif

namespace nufft {

void compute_window(const GridDesc& g, const kernels::KernelLut& lut, const float* coord,
                    int dim, bool fill_dup, WindowBuf& wb) {
  WindowEval ev;
  ev.lut = &lut;
  compute_window(g, ev, coord, dim, fill_dup, wb);
}

namespace {

// Part 1 for one sample: the per-sample reference the sample loop's
// detail::window_block (core/window_span.hpp) reproduces lane by lane, bit
// for bit. The Horner row is KernelHorner::eval_window's (kernels/horner.hpp).
template <int DIM, bool HORNER>
void window_spec(const GridDesc& g, const WindowEval& ev, const float* coord, bool fill_dup,
                 WindowBuf& wb) {
  const float W = ev.radius();
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
      ev.horner->eval_window(z, sp.len, wb.win[d]);
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

template <bool HORNER>
void window_runtime_w(const GridDesc& g, const WindowEval& ev, const float* coord, int dim,
                      bool fill_dup, WindowBuf& wb) {
  switch (dim) {
    case 1:
      window_spec<1, HORNER>(g, ev, coord, fill_dup, wb);
      return;
    case 2:
      window_spec<2, HORNER>(g, ev, coord, fill_dup, wb);
      return;
    case 3:
      window_spec<3, HORNER>(g, ev, coord, fill_dup, wb);
      return;
    default:
      throw Error("unsupported dimension");
  }
}

}  // namespace

void compute_window(const GridDesc& g, const WindowEval& ev, const float* coord, int dim,
                    bool fill_dup, WindowBuf& wb) {
  if (ev.lut != nullptr) {
    window_runtime_w<false>(g, ev, coord, dim, fill_dup, wb);
  } else {
    window_runtime_w<true>(g, ev, coord, dim, fill_dup, wb);
  }
}

namespace {

// ---- scalar inner loops over the last (contiguous-memory) dimension ----

// One row of the adjoint: row[idx] += val·(w·wxy) per cell — the
// association of the SIMD kernels (core/batch_conv.hpp), so the SSE adjoint
// equals this one bitwise. That is one multiply per cell more than scaling
// val by wxy once per row; each cell's w·wxy is its own rounded product.
NUFFT_SCALAR_CODEGEN
inline void adj_row_scalar(cfloat* row, const float* win, const index_t* idx, int len,
                           float wxy, cfloat val) {
  for (int t = 0; t < len; ++t) row[idx[t]] += val * (win[t] * wxy);
}

NUFFT_SCALAR_CODEGEN
inline cfloat fwd_inner_scalar(const cfloat* row, const float* win, const index_t* idx,
                               int len) {
  cfloat acc(0.0f, 0.0f);
  for (int t = 0; t < len; ++t) acc += row[idx[t]] * win[t];
  return acc;
}

}  // namespace

// ---- adjoint (scatter) ----

template <int DIM>
NUFFT_SCALAR_CODEGEN void adj_scatter_scalar(cfloat* grid, const std::array<index_t, 3>& strides,
                                             const WindowBuf& wb, cfloat val) {
  constexpr int last = DIM - 1;
  detail::for_each_row<DIM>(wb, strides, [&](index_t off, float wxy) {
    adj_row_scalar(grid + off, wb.win[last], wb.idx[last], wb.len[last], wxy, val);
  });
}

// ---- forward (gather) ----

template <int DIM>
NUFFT_SCALAR_CODEGEN cfloat fwd_gather_scalar(const cfloat* grid,
                                              const std::array<index_t, 3>& strides,
                                              const WindowBuf& wb) {
  constexpr int last = DIM - 1;
  if constexpr (DIM == 1) {
    return fwd_inner_scalar(grid, wb.win[0], wb.idx[0], wb.len[0]);
  } else {
    cfloat acc(0.0f, 0.0f);
    detail::for_each_row<DIM>(wb, strides, [&](index_t off, float wxy) {
      acc += fwd_inner_scalar(grid + off, wb.win[last], wb.idx[last], wb.len[last]) * wxy;
    });
    return acc;
  }
}

template void adj_scatter_scalar<1>(cfloat*, const std::array<index_t, 3>&, const WindowBuf&, cfloat);
template void adj_scatter_scalar<2>(cfloat*, const std::array<index_t, 3>&, const WindowBuf&, cfloat);
template void adj_scatter_scalar<3>(cfloat*, const std::array<index_t, 3>&, const WindowBuf&, cfloat);
template cfloat fwd_gather_scalar<1>(const cfloat*, const std::array<index_t, 3>&, const WindowBuf&);
template cfloat fwd_gather_scalar<2>(const cfloat*, const std::array<index_t, 3>&, const WindowBuf&);
template cfloat fwd_gather_scalar<3>(const cfloat*, const std::array<index_t, 3>&, const WindowBuf&);

}  // namespace nufft
