// This translation unit is compiled with -mavx2 -mfma -ffp-contract=off (see
// src/CMakeLists): the vector FMAs are explicit fmadd intrinsics, and the
// scalar tails must not be fused differently in the G = 1 and G = kSlabGroup
// instantiations, or a batch slice would stop equalling its single apply.
//
// AVX2+FMA variants of the SIMD Part-2 kernels: four complex cells per
// 256-bit op, with the row weights and per-slice arithmetic of
// batch_conv.cpp. Gate on avx2_available() before dispatching here.
#include "core/batch_conv.hpp"

#include "simd/vec8f.hpp"

namespace nufft {

namespace {

using simd::Vec8f;

// The row weights win_dup·wxy (4-cell vectors) and the up-to-3 trailing
// scalar weights are built once per row and shared by the slice loop (at
// G = 1 the vectors are built where they are used, as measured in
// batch_conv.cpp). They stay plain locals:
// stores through the __m256 accumulators may alias any object whose address
// escapes, which would force reloads in the slice loop.
template <int G>
[[gnu::always_inline]] inline void scatter_row(cfloat* row0, std::size_t sstride, index_t nb,
                                               const WindowBuf& wb, int last, float wxy,
                                               const Vec8f* vsplat, const cfloat* vals) {
  const int len = wb.len[last];
  if (!wb.inner_contiguous) {
    for (index_t b = 0; b < nb; ++b) {
      cfloat* row = row0 + sstride * static_cast<std::size_t>(b);
      for (int t = 0; t < len; ++t) row[wb.idx[last][t]] += vals[b] * (wb.win[last][t] * wxy);
    }
    return;
  }
  const int quads = len / 4;
  const int rem = len - 4 * quads;
  const Vec8f wxyv(wxy);
  const auto weight = [&](int j) { return Vec8f::load(wb.win_dup + 8 * j) * wxyv; };
  Vec8f wv[G == 1 ? 1 : WindowBuf::kMaxLen / 4 + 1];
  if constexpr (G > 1) {
    for (int j = 0; j < quads; ++j) wv[j] = weight(j);
  }
  const auto w = [&](int j) { return G == 1 ? weight(j) : wv[j]; };
  float wtail[3];
  for (int t = 0; t < rem; ++t) wtail[t] = wb.win[last][4 * quads + t] * wxy;
  cfloat* cell0 = row0 + wb.idx[last][0];
  for (index_t b = 0; b < nb; ++b) {
    cfloat* cell = cell0 + sstride * static_cast<std::size_t>(b);
    auto* p = reinterpret_cast<float*>(cell);
    for (int j = 0; j < quads; ++j) {
      simd::fmadd(vsplat[b], w(j), Vec8f::loadu(p + 8 * j)).storeu(p + 8 * j);
    }
    for (int t = 0; t < rem; ++t) cell[4 * quads + t] += vals[b] * wtail[t];
  }
}

// Rows sum into a fresh vector before joining the slice's accumulator, as
// in batch_conv.cpp.
template <int G>
[[gnu::always_inline]] inline void gather_row(const cfloat* row0, std::size_t sstride,
                                              index_t nb, const WindowBuf& wb, int last,
                                              float wxy, Vec8f* accs, cfloat* touts) {
  const int len = wb.len[last];
  if (!wb.inner_contiguous) {
    for (index_t b = 0; b < nb; ++b) {
      const cfloat* row = row0 + sstride * static_cast<std::size_t>(b);
      for (int t = 0; t < len; ++t) touts[b] += row[wb.idx[last][t]] * (wb.win[last][t] * wxy);
    }
    return;
  }
  const int quads = len / 4;
  const int rem = len - 4 * quads;
  const Vec8f wxyv(wxy);
  const auto weight = [&](int j) { return Vec8f::load(wb.win_dup + 8 * j) * wxyv; };
  Vec8f wv[G == 1 ? 1 : WindowBuf::kMaxLen / 4 + 1];
  if constexpr (G > 1) {
    for (int j = 0; j < quads; ++j) wv[j] = weight(j);
  }
  const auto w = [&](int j) { return G == 1 ? weight(j) : wv[j]; };
  float wtail[3];
  for (int t = 0; t < rem; ++t) wtail[t] = wb.win[last][4 * quads + t] * wxy;
  const cfloat* cell0 = row0 + wb.idx[last][0];
  for (index_t b = 0; b < nb; ++b) {
    const cfloat* cell = cell0 + sstride * static_cast<std::size_t>(b);
    const auto* p = reinterpret_cast<const float*>(cell);
    Vec8f rsum = quads > 0 ? Vec8f::loadu(p) * w(0) : Vec8f::zero();
    for (int j = 1; j < quads; ++j) rsum = simd::fmadd(Vec8f::loadu(p + 8 * j), w(j), rsum);
    accs[b] = accs[b] + rsum;
    for (int t = 0; t < rem; ++t) touts[b] += cell[4 * quads + t] * wtail[t];
  }
}

}  // namespace

template <int DIM, int G>
void scatter_slices_avx2(cfloat* slab0, std::size_t sstride, index_t nb,
                         const std::array<index_t, 3>& strides, const WindowBuf& wb,
                         const cfloat* vals) {
  const index_t ns = G == 1 ? 1 : nb;
  Vec8f vsplat[G];
  for (index_t b = 0; b < ns; ++b) {
    vsplat[b] = Vec8f::broadcast_complex(vals[b].real(), vals[b].imag());
  }
  detail::for_each_row<DIM>(wb, strides, [&](index_t off, float wxy) {
    scatter_row<G>(slab0 + off, sstride, ns, wb, DIM - 1, wxy, vsplat, vals);
  });
}

template <int DIM, int G>
void gather_slices_avx2(const cfloat* slab0, std::size_t sstride, index_t nb,
                        const std::array<index_t, 3>& strides, const WindowBuf& wb,
                        cfloat* outs) {
  const index_t ns = G == 1 ? 1 : nb;
  Vec8f accs[G];
  cfloat touts[G];
  detail::for_each_row<DIM>(wb, strides, [&](index_t off, float wxy) {
    gather_row<G>(slab0 + off, sstride, ns, wb, DIM - 1, wxy, accs, touts);
  });
  for (index_t b = 0; b < ns; ++b) {
    float re = 0.0f, im = 0.0f;
    accs[b].hsum_complex(re, im);
    outs[b] = cfloat(re, im) + touts[b];
  }
}

#define NUFFT_INSTANTIATE_AVX2(DIM, G)                                                        \
  template void scatter_slices_avx2<DIM, G>(cfloat*, std::size_t, index_t,                   \
                                            const std::array<index_t, 3>&, const WindowBuf&, \
                                            const cfloat*);                                  \
  template void gather_slices_avx2<DIM, G>(const cfloat*, std::size_t, index_t,             \
                                           const std::array<index_t, 3>&, const WindowBuf&,  \
                                           cfloat*);
NUFFT_INSTANTIATE_AVX2(1, 1)
NUFFT_INSTANTIATE_AVX2(2, 1)
NUFFT_INSTANTIATE_AVX2(3, 1)
NUFFT_INSTANTIATE_AVX2(1, kSlabGroup)
NUFFT_INSTANTIATE_AVX2(2, kSlabGroup)
NUFFT_INSTANTIATE_AVX2(3, kSlabGroup)
#undef NUFFT_INSTANTIATE_AVX2

}  // namespace nufft
