#include "core/batch_conv.hpp"

#include "simd/vec4f.hpp"

namespace nufft {

namespace {

using simd::Vec4f;

// One weighted row, scattered into all nb slabs. The weight vectors
// win_dup·wxy are built once and reused across the slice loop; the single
// kernels rebuild them for every apply.
inline void badj_row_sse(cfloat* row0, std::size_t sstride, index_t nb, const WindowBuf& wb,
                         int last, float wxy, const Vec4f* vsplat, const cfloat* vals) {
  const int len = wb.len[last];
  if (!wb.inner_contiguous) {
    // Wrapped windows take the indexed path (boundary samples only).
    for (index_t b = 0; b < nb; ++b) {
      cfloat* row = row0 + sstride * static_cast<std::size_t>(b);
      const cfloat tmp = vals[b] * wxy;
      for (int t = 0; t < len; ++t) row[wb.idx[last][t]] += tmp * wb.win[last][t];
    }
    return;
  }
  const int pairs = len / 2;
  const Vec4f wxyv(wxy);
  Vec4f wv[WindowBuf::kMaxLen / 2];
  for (int j = 0; j < pairs; ++j) wv[j] = Vec4f::load(wb.win_dup + 4 * j) * wxyv;
  const bool odd = (len & 1) != 0;
  const float wt = odd ? wxy * wb.win[last][len - 1] : 0.0f;
  cfloat* cell0 = row0 + wb.idx[last][0];
  for (index_t b = 0; b < nb; ++b) {
    cfloat* cell = cell0 + sstride * static_cast<std::size_t>(b);
    auto* p = reinterpret_cast<float*>(cell);
    for (int j = 0; j < pairs; ++j) {
      simd::madd(vsplat[b], wv[j], Vec4f::loadu(p + 4 * j)).storeu(p + 4 * j);
    }
    if (odd) cell[len - 1] += vals[b] * wt;
  }
}

// One weighted row, gathered from all nb slabs into the per-slice vector
// accumulators (pair-summed by the caller). Odd-tail and wrapped-window
// contributions go to the scalar accumulators `touts`.
inline void bfwd_row_sse(const cfloat* row0, std::size_t sstride, index_t nb,
                         const WindowBuf& wb, int last, float wxy, Vec4f* accs, cfloat* touts) {
  const int len = wb.len[last];
  if (!wb.inner_contiguous) {
    for (index_t b = 0; b < nb; ++b) {
      const cfloat* row = row0 + sstride * static_cast<std::size_t>(b);
      cfloat acc(0.0f, 0.0f);
      for (int t = 0; t < len; ++t) acc += row[wb.idx[last][t]] * wb.win[last][t];
      touts[b] += acc * wxy;
    }
    return;
  }
  const int pairs = len / 2;
  const Vec4f wxyv(wxy);
  Vec4f wv[WindowBuf::kMaxLen / 2];
  for (int j = 0; j < pairs; ++j) wv[j] = Vec4f::load(wb.win_dup + 4 * j) * wxyv;
  const bool odd = (len & 1) != 0;
  const float wt = odd ? wxy * wb.win[last][len - 1] : 0.0f;
  const cfloat* cell0 = row0 + wb.idx[last][0];
  for (index_t b = 0; b < nb; ++b) {
    const cfloat* cell = cell0 + sstride * static_cast<std::size_t>(b);
    const auto* p = reinterpret_cast<const float*>(cell);
    Vec4f acc = accs[b];
    for (int j = 0; j < pairs; ++j) acc = simd::madd(Vec4f::loadu(p + 4 * j), wv[j], acc);
    accs[b] = acc;
    if (odd) touts[b] += cell[len - 1] * wt;
  }
}

}  // namespace

template <int DIM>
void badj_scatter_sse(cfloat* slab0, std::size_t sstride, index_t nb,
                      const std::array<index_t, 3>& strides, const WindowBuf& wb,
                      const cfloat* vals) {
  constexpr int last = DIM - 1;
  Vec4f vsplat[kMaxBatch];
  for (index_t b = 0; b < nb; ++b) {
    vsplat[b] = Vec4f(vals[b].real(), vals[b].imag(), vals[b].real(), vals[b].imag());
  }
  if constexpr (DIM == 1) {
    badj_row_sse(slab0, sstride, nb, wb, last, 1.0f, vsplat, vals);
  } else if constexpr (DIM == 2) {
    for (int iy = 0; iy < wb.len[0]; ++iy) {
      badj_row_sse(slab0 + wb.idx[0][iy] * strides[0], sstride, nb, wb, last, wb.win[0][iy],
                   vsplat, vals);
    }
  } else {
    for (int ix = 0; ix < wb.len[0]; ++ix) {
      cfloat* base = slab0 + wb.idx[0][ix] * strides[0];
      const float wx = wb.win[0][ix];
      for (int iy = 0; iy < wb.len[1]; ++iy) {
        badj_row_sse(base + wb.idx[1][iy] * strides[1], sstride, nb, wb, last,
                     wx * wb.win[1][iy], vsplat, vals);
      }
    }
  }
}

template <int DIM>
void bfwd_gather_sse(const cfloat* slab0, std::size_t sstride, index_t nb,
                     const std::array<index_t, 3>& strides, const WindowBuf& wb, cfloat* outs) {
  constexpr int last = DIM - 1;
  Vec4f accs[kMaxBatch];
  cfloat touts[kMaxBatch];
  for (index_t b = 0; b < nb; ++b) touts[b] = cfloat(0.0f, 0.0f);
  if constexpr (DIM == 1) {
    bfwd_row_sse(slab0, sstride, nb, wb, last, 1.0f, accs, touts);
  } else if constexpr (DIM == 2) {
    for (int iy = 0; iy < wb.len[0]; ++iy) {
      bfwd_row_sse(slab0 + wb.idx[0][iy] * strides[0], sstride, nb, wb, last, wb.win[0][iy],
                   accs, touts);
    }
  } else {
    for (int ix = 0; ix < wb.len[0]; ++ix) {
      const cfloat* base = slab0 + wb.idx[0][ix] * strides[0];
      const float wx = wb.win[0][ix];
      for (int iy = 0; iy < wb.len[1]; ++iy) {
        bfwd_row_sse(base + wb.idx[1][iy] * strides[1], sstride, nb, wb, last,
                     wx * wb.win[1][iy], accs, touts);
      }
    }
  }
  for (index_t b = 0; b < nb; ++b) {
    const Vec4f ps = accs[b].hsum_complex_pairs();
    outs[b] = cfloat(ps[0], ps[1]) + touts[b];
  }
}

template void badj_scatter_sse<1>(cfloat*, std::size_t, index_t, const std::array<index_t, 3>&,
                                  const WindowBuf&, const cfloat*);
template void badj_scatter_sse<2>(cfloat*, std::size_t, index_t, const std::array<index_t, 3>&,
                                  const WindowBuf&, const cfloat*);
template void badj_scatter_sse<3>(cfloat*, std::size_t, index_t, const std::array<index_t, 3>&,
                                  const WindowBuf&, const cfloat*);
template void bfwd_gather_sse<1>(const cfloat*, std::size_t, index_t,
                                 const std::array<index_t, 3>&, const WindowBuf&, cfloat*);
template void bfwd_gather_sse<2>(const cfloat*, std::size_t, index_t,
                                 const std::array<index_t, 3>&, const WindowBuf&, cfloat*);
template void bfwd_gather_sse<3>(const cfloat*, std::size_t, index_t,
                                 const std::array<index_t, 3>&, const WindowBuf&, cfloat*);

}  // namespace nufft
