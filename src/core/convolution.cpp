#include "core/convolution.hpp"

#include "common/error.hpp"
#include "core/window_span.hpp"
#include "simd/vec4f.hpp"

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

// compute_window is the runtime-W instantiation of the dispatch variants'
// Part 1 (detail::window_spec), so the window arithmetic exists once.
template <bool HORNER>
void window_runtime_w(const GridDesc& g, const WindowEval& ev, const float* coord, int dim,
                      bool fill_dup, WindowBuf& wb) {
  switch (dim) {
    case 1:
      detail::window_spec<1, 0, HORNER, false>(g, ev, coord, fill_dup, wb);
      return;
    case 2:
      detail::window_spec<2, 0, HORNER, false>(g, ev, coord, fill_dup, wb);
      return;
    case 3:
      detail::window_spec<3, 0, HORNER, false>(g, ev, coord, fill_dup, wb);
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

NUFFT_SCALAR_CODEGEN
inline void adj_inner_scalar(cfloat* row, const float* win, const index_t* idx, int len,
                             cfloat tmp) {
  for (int t = 0; t < len; ++t) row[idx[t]] += tmp * win[t];
}

NUFFT_SCALAR_CODEGEN
inline cfloat fwd_inner_scalar(const cfloat* row, const float* win, const index_t* idx,
                               int len) {
  cfloat acc(0.0f, 0.0f);
  for (int t = 0; t < len; ++t) acc += row[idx[t]] * win[t];
  return acc;
}

// ---- SSE inner loops: two interleaved complex cells per 128-bit op ----

inline void adj_inner_simd(cfloat* row, const WindowBuf& wb, int last, cfloat tmp) {
  const int len = wb.len[last];
  if (!wb.inner_contiguous) {
    adj_inner_scalar(row, wb.win[last], wb.idx[last], len, tmp);
    return;
  }
  auto* p = reinterpret_cast<float*>(row + wb.idx[last][0]);
  const simd::Vec4f v(tmp.real(), tmp.imag(), tmp.real(), tmp.imag());
  const int pairs = len / 2;
  for (int j = 0; j < pairs; ++j) {
    const simd::Vec4f w = simd::Vec4f::load(wb.win_dup + 4 * j);
    simd::madd(v, w, simd::Vec4f::loadu(p + 4 * j)).storeu(p + 4 * j);
  }
  if ((len & 1) != 0) row[wb.idx[last][0] + len - 1] += tmp * wb.win[last][len - 1];
}

inline cfloat fwd_inner_simd(const cfloat* row, const WindowBuf& wb, int last) {
  const int len = wb.len[last];
  if (!wb.inner_contiguous) {
    return fwd_inner_scalar(row, wb.win[last], wb.idx[last], len);
  }
  const auto* p = reinterpret_cast<const float*>(row + wb.idx[last][0]);
  simd::Vec4f acc = simd::Vec4f::zero();
  const int pairs = len / 2;
  for (int j = 0; j < pairs; ++j) {
    const simd::Vec4f w = simd::Vec4f::load(wb.win_dup + 4 * j);
    acc = simd::madd(simd::Vec4f::loadu(p + 4 * j), w, acc);
  }
  const simd::Vec4f pairsum = acc.hsum_complex_pairs();
  cfloat out(pairsum[0], pairsum[1]);
  if ((len & 1) != 0) out += row[wb.idx[last][0] + len - 1] * wb.win[last][len - 1];
  return out;
}

}  // namespace

// ---- adjoint (scatter) ----

template <int DIM>
NUFFT_SCALAR_CODEGEN void adj_scatter_scalar(cfloat* grid, const std::array<index_t, 3>& strides,
                                             const WindowBuf& wb, cfloat val) {
  constexpr int last = DIM - 1;
  if constexpr (DIM == 1) {
    adj_inner_scalar(grid, wb.win[0], wb.idx[0], wb.len[0], val);
  } else if constexpr (DIM == 2) {
    for (int iy = 0; iy < wb.len[0]; ++iy) {
      cfloat tmp = val * wb.win[0][iy];
      adj_inner_scalar(grid + wb.idx[0][iy] * strides[0], wb.win[last], wb.idx[last],
                       wb.len[last], tmp);
    }
  } else {
    for (int ix = 0; ix < wb.len[0]; ++ix) {
      cfloat* base = grid + wb.idx[0][ix] * strides[0];
      const float wx = wb.win[0][ix];
      for (int iy = 0; iy < wb.len[1]; ++iy) {
        const float wxy = wx * wb.win[1][iy];
        adj_inner_scalar(base + wb.idx[1][iy] * strides[1], wb.win[last], wb.idx[last],
                         wb.len[last], val * wxy);
      }
    }
  }
}

template <int DIM>
void adj_scatter_simd(cfloat* grid, const std::array<index_t, 3>& strides, const WindowBuf& wb,
                      cfloat val) {
  constexpr int last = DIM - 1;
  if constexpr (DIM == 1) {
    adj_inner_simd(grid, wb, last, val);
  } else if constexpr (DIM == 2) {
    for (int iy = 0; iy < wb.len[0]; ++iy) {
      adj_inner_simd(grid + wb.idx[0][iy] * strides[0], wb, last, val * wb.win[0][iy]);
    }
  } else {
    for (int ix = 0; ix < wb.len[0]; ++ix) {
      cfloat* base = grid + wb.idx[0][ix] * strides[0];
      const float wx = wb.win[0][ix];
      for (int iy = 0; iy < wb.len[1]; ++iy) {
        const float wxy = wx * wb.win[1][iy];
        adj_inner_simd(base + wb.idx[1][iy] * strides[1], wb, last, val * wxy);
      }
    }
  }
}

// ---- forward (gather) ----

template <int DIM>
NUFFT_SCALAR_CODEGEN cfloat fwd_gather_scalar(const cfloat* grid,
                                              const std::array<index_t, 3>& strides,
                                              const WindowBuf& wb) {
  constexpr int last = DIM - 1;
  if constexpr (DIM == 1) {
    return fwd_inner_scalar(grid, wb.win[0], wb.idx[0], wb.len[0]);
  } else if constexpr (DIM == 2) {
    cfloat acc(0.0f, 0.0f);
    for (int iy = 0; iy < wb.len[0]; ++iy) {
      acc += fwd_inner_scalar(grid + wb.idx[0][iy] * strides[0], wb.win[last], wb.idx[last],
                              wb.len[last]) *
             wb.win[0][iy];
    }
    return acc;
  } else {
    cfloat acc(0.0f, 0.0f);
    for (int ix = 0; ix < wb.len[0]; ++ix) {
      const cfloat* base = grid + wb.idx[0][ix] * strides[0];
      const float wx = wb.win[0][ix];
      for (int iy = 0; iy < wb.len[1]; ++iy) {
        const float wxy = wx * wb.win[1][iy];
        acc += fwd_inner_scalar(base + wb.idx[1][iy] * strides[1], wb.win[last], wb.idx[last],
                                wb.len[last]) *
               wxy;
      }
    }
    return acc;
  }
}

template <int DIM>
cfloat fwd_gather_simd(const cfloat* grid, const std::array<index_t, 3>& strides,
                       const WindowBuf& wb) {
  constexpr int last = DIM - 1;
  if constexpr (DIM == 1) {
    return fwd_inner_simd(grid, wb, last);
  } else if constexpr (DIM == 2) {
    cfloat acc(0.0f, 0.0f);
    for (int iy = 0; iy < wb.len[0]; ++iy) {
      acc += fwd_inner_simd(grid + wb.idx[0][iy] * strides[0], wb, last) * wb.win[0][iy];
    }
    return acc;
  } else {
    cfloat acc(0.0f, 0.0f);
    for (int ix = 0; ix < wb.len[0]; ++ix) {
      const cfloat* base = grid + wb.idx[0][ix] * strides[0];
      const float wx = wb.win[0][ix];
      for (int iy = 0; iy < wb.len[1]; ++iy) {
        const float wxy = wx * wb.win[1][iy];
        acc += fwd_inner_simd(base + wb.idx[1][iy] * strides[1], wb, last) * wxy;
      }
    }
    return acc;
  }
}

template void adj_scatter_scalar<1>(cfloat*, const std::array<index_t, 3>&, const WindowBuf&, cfloat);
template void adj_scatter_scalar<2>(cfloat*, const std::array<index_t, 3>&, const WindowBuf&, cfloat);
template void adj_scatter_scalar<3>(cfloat*, const std::array<index_t, 3>&, const WindowBuf&, cfloat);
template void adj_scatter_simd<1>(cfloat*, const std::array<index_t, 3>&, const WindowBuf&, cfloat);
template void adj_scatter_simd<2>(cfloat*, const std::array<index_t, 3>&, const WindowBuf&, cfloat);
template void adj_scatter_simd<3>(cfloat*, const std::array<index_t, 3>&, const WindowBuf&, cfloat);
template cfloat fwd_gather_scalar<1>(const cfloat*, const std::array<index_t, 3>&, const WindowBuf&);
template cfloat fwd_gather_scalar<2>(const cfloat*, const std::array<index_t, 3>&, const WindowBuf&);
template cfloat fwd_gather_scalar<3>(const cfloat*, const std::array<index_t, 3>&, const WindowBuf&);
template cfloat fwd_gather_simd<1>(const cfloat*, const std::array<index_t, 3>&, const WindowBuf&);
template cfloat fwd_gather_simd<2>(const cfloat*, const std::array<index_t, 3>&, const WindowBuf&);
template cfloat fwd_gather_simd<3>(const cfloat*, const std::array<index_t, 3>&, const WindowBuf&);

}  // namespace nufft
