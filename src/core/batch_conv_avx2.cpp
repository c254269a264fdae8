// This translation unit is compiled with -mavx2 -mfma (see src/CMakeLists).
//
// AVX2+FMA variants of the multi-slice convolution kernels: four complex
// cells per 256-bit op, weight vectors hoisted out of the slice loop exactly
// as in batch_conv.cpp. Gate on avx2_available() before dispatching here.
#include "core/batch_conv.hpp"

#include "simd/vec8f.hpp"

namespace nufft {

namespace {

using simd::Vec8f;

inline void badj_row_avx2(cfloat* row0, std::size_t sstride, index_t nb, const WindowBuf& wb,
                          int last, float wxy, const Vec8f* vsplat, const cfloat* vals) {
  const int len = wb.len[last];
  if (!wb.inner_contiguous) {
    for (index_t b = 0; b < nb; ++b) {
      cfloat* row = row0 + sstride * static_cast<std::size_t>(b);
      const cfloat tmp = vals[b] * wxy;
      for (int t = 0; t < len; ++t) row[wb.idx[last][t]] += tmp * wb.win[last][t];
    }
    return;
  }
  const int quads = len / 4;
  const int rem = len - 4 * quads;
  const Vec8f wxyv(wxy);
  Vec8f wv[WindowBuf::kMaxLen / 4 + 1];
  for (int j = 0; j < quads; ++j) wv[j] = Vec8f::load(wb.win_dup + 8 * j) * wxyv;
  float wtail[3];
  for (int t = 0; t < rem; ++t) wtail[t] = wxy * wb.win[last][4 * quads + t];
  cfloat* cell0 = row0 + wb.idx[last][0];
  for (index_t b = 0; b < nb; ++b) {
    cfloat* cell = cell0 + sstride * static_cast<std::size_t>(b);
    auto* p = reinterpret_cast<float*>(cell);
    for (int j = 0; j < quads; ++j) {
      simd::fmadd(vsplat[b], wv[j], Vec8f::loadu(p + 8 * j)).storeu(p + 8 * j);
    }
    for (int t = 0; t < rem; ++t) cell[4 * quads + t] += vals[b] * wtail[t];
  }
}

inline void bfwd_row_avx2(const cfloat* row0, std::size_t sstride, index_t nb,
                          const WindowBuf& wb, int last, float wxy, Vec8f* accs,
                          cfloat* touts) {
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
  const int quads = len / 4;
  const int rem = len - 4 * quads;
  const Vec8f wxyv(wxy);
  Vec8f wv[WindowBuf::kMaxLen / 4 + 1];
  for (int j = 0; j < quads; ++j) wv[j] = Vec8f::load(wb.win_dup + 8 * j) * wxyv;
  float wtail[3];
  for (int t = 0; t < rem; ++t) wtail[t] = wxy * wb.win[last][4 * quads + t];
  const cfloat* cell0 = row0 + wb.idx[last][0];
  for (index_t b = 0; b < nb; ++b) {
    const cfloat* cell = cell0 + sstride * static_cast<std::size_t>(b);
    const auto* p = reinterpret_cast<const float*>(cell);
    Vec8f acc = accs[b];
    for (int j = 0; j < quads; ++j) acc = simd::fmadd(Vec8f::loadu(p + 8 * j), wv[j], acc);
    accs[b] = acc;
    for (int t = 0; t < rem; ++t) touts[b] += cell[4 * quads + t] * wtail[t];
  }
}

}  // namespace

template <int DIM>
void badj_scatter_avx2(cfloat* slab0, std::size_t sstride, index_t nb,
                       const std::array<index_t, 3>& strides, const WindowBuf& wb,
                       const cfloat* vals) {
  constexpr int last = DIM - 1;
  Vec8f vsplat[kMaxBatch];
  for (index_t b = 0; b < nb; ++b) {
    vsplat[b] = Vec8f::broadcast_complex(vals[b].real(), vals[b].imag());
  }
  if constexpr (DIM == 1) {
    badj_row_avx2(slab0, sstride, nb, wb, last, 1.0f, vsplat, vals);
  } else if constexpr (DIM == 2) {
    for (int iy = 0; iy < wb.len[0]; ++iy) {
      badj_row_avx2(slab0 + wb.idx[0][iy] * strides[0], sstride, nb, wb, last, wb.win[0][iy],
                    vsplat, vals);
    }
  } else {
    for (int ix = 0; ix < wb.len[0]; ++ix) {
      cfloat* base = slab0 + wb.idx[0][ix] * strides[0];
      const float wx = wb.win[0][ix];
      for (int iy = 0; iy < wb.len[1]; ++iy) {
        badj_row_avx2(base + wb.idx[1][iy] * strides[1], sstride, nb, wb, last,
                      wx * wb.win[1][iy], vsplat, vals);
      }
    }
  }
}

template <int DIM>
void bfwd_gather_avx2(const cfloat* slab0, std::size_t sstride, index_t nb,
                      const std::array<index_t, 3>& strides, const WindowBuf& wb,
                      cfloat* outs) {
  constexpr int last = DIM - 1;
  Vec8f accs[kMaxBatch];
  cfloat touts[kMaxBatch];
  for (index_t b = 0; b < nb; ++b) touts[b] = cfloat(0.0f, 0.0f);
  if constexpr (DIM == 1) {
    bfwd_row_avx2(slab0, sstride, nb, wb, last, 1.0f, accs, touts);
  } else if constexpr (DIM == 2) {
    for (int iy = 0; iy < wb.len[0]; ++iy) {
      bfwd_row_avx2(slab0 + wb.idx[0][iy] * strides[0], sstride, nb, wb, last, wb.win[0][iy],
                    accs, touts);
    }
  } else {
    for (int ix = 0; ix < wb.len[0]; ++ix) {
      const cfloat* base = slab0 + wb.idx[0][ix] * strides[0];
      const float wx = wb.win[0][ix];
      for (int iy = 0; iy < wb.len[1]; ++iy) {
        bfwd_row_avx2(base + wb.idx[1][iy] * strides[1], sstride, nb, wb, last,
                      wx * wb.win[1][iy], accs, touts);
      }
    }
  }
  for (index_t b = 0; b < nb; ++b) {
    float re = 0.0f, im = 0.0f;
    accs[b].hsum_complex(re, im);
    outs[b] = cfloat(re, im) + touts[b];
  }
}

template void badj_scatter_avx2<1>(cfloat*, std::size_t, index_t, const std::array<index_t, 3>&,
                                   const WindowBuf&, const cfloat*);
template void badj_scatter_avx2<2>(cfloat*, std::size_t, index_t, const std::array<index_t, 3>&,
                                   const WindowBuf&, const cfloat*);
template void badj_scatter_avx2<3>(cfloat*, std::size_t, index_t, const std::array<index_t, 3>&,
                                   const WindowBuf&, const cfloat*);
template void bfwd_gather_avx2<1>(const cfloat*, std::size_t, index_t,
                                  const std::array<index_t, 3>&, const WindowBuf&, cfloat*);
template void bfwd_gather_avx2<2>(const cfloat*, std::size_t, index_t,
                                  const std::array<index_t, 3>&, const WindowBuf&, cfloat*);
template void bfwd_gather_avx2<3>(const cfloat*, std::size_t, index_t,
                                  const std::array<index_t, 3>&, const WindowBuf&, cfloat*);

}  // namespace nufft
