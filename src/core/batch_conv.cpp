#include "core/batch_conv.hpp"

#include "simd/vec4f.hpp"

namespace nufft {

namespace {

using simd::Vec4f;

// One weighted row, scattered into the group's slabs. The weight vectors
// win_dup·wxy are built once per row and reused across the slice loop (as
// plain locals: stores through the __m128 accumulators may alias any object
// whose address escapes); at G = 1 each is used once, so it is built where
// it is used — the same product, without the store and reload (hoisting it
// at G = 1 too measured 2–17 % slower in the one-thread nb = 1 gather and
// up to 9 % in the scatter, 3-D W = 6 and 8, SSE and AVX2, on an AVX2+FMA
// Xeon). Wrapped windows (boundary samples only) take the indexed path
// with the same per-cell weights w·wxy.
template <int G>
[[gnu::always_inline]] inline void scatter_row(cfloat* row0, std::size_t sstride, index_t nb,
                                               const WindowBuf& wb, int last, float wxy,
                                               const Vec4f* vsplat, const cfloat* vals) {
  const int len = wb.len[last];
  if (!wb.inner_contiguous) {
    for (index_t b = 0; b < nb; ++b) {
      cfloat* row = row0 + sstride * static_cast<std::size_t>(b);
      for (int t = 0; t < len; ++t) row[wb.idx[last][t]] += vals[b] * (wb.win[last][t] * wxy);
    }
    return;
  }
  const int pairs = len / 2;
  const Vec4f wxyv(wxy);
  const auto weight = [&](int j) { return Vec4f::load(wb.win_dup + 4 * j) * wxyv; };
  Vec4f wv[G == 1 ? 1 : WindowBuf::kMaxLen / 2];
  if constexpr (G > 1) {
    for (int j = 0; j < pairs; ++j) wv[j] = weight(j);
  }
  const auto w = [&](int j) { return G == 1 ? weight(j) : wv[j]; };
  const bool odd = (len & 1) != 0;
  const float wt = odd ? wb.win[last][len - 1] * wxy : 0.0f;
  cfloat* cell0 = row0 + wb.idx[last][0];
  for (index_t b = 0; b < nb; ++b) {
    cfloat* cell = cell0 + sstride * static_cast<std::size_t>(b);
    auto* p = reinterpret_cast<float*>(cell);
    for (int j = 0; j < pairs; ++j) {
      simd::madd(vsplat[b], w(j), Vec4f::loadu(p + 4 * j)).storeu(p + 4 * j);
    }
    if (odd) cell[len - 1] += vals[b] * wt;
  }
}

// One weighted row, gathered from the group's slabs into the per-slice
// vector accumulators (pair-summed once per sample by the caller). Each row
// sums into a fresh vector, started from its first product, before joining
// the accumulator: at G = 1 the rows are then independent dependency chains
// rather than one chain through every cell of the window. Odd-tail and
// wrapped-window contributions go to the scalar accumulators `touts`.
template <int G>
[[gnu::always_inline]] inline void gather_row(const cfloat* row0, std::size_t sstride,
                                              index_t nb, const WindowBuf& wb, int last,
                                              float wxy, Vec4f* accs, cfloat* touts) {
  const int len = wb.len[last];
  if (!wb.inner_contiguous) {
    for (index_t b = 0; b < nb; ++b) {
      const cfloat* row = row0 + sstride * static_cast<std::size_t>(b);
      for (int t = 0; t < len; ++t) touts[b] += row[wb.idx[last][t]] * (wb.win[last][t] * wxy);
    }
    return;
  }
  const int pairs = len / 2;
  const Vec4f wxyv(wxy);
  const auto weight = [&](int j) { return Vec4f::load(wb.win_dup + 4 * j) * wxyv; };
  Vec4f wv[G == 1 ? 1 : WindowBuf::kMaxLen / 2];
  if constexpr (G > 1) {
    for (int j = 0; j < pairs; ++j) wv[j] = weight(j);
  }
  const auto w = [&](int j) { return G == 1 ? weight(j) : wv[j]; };
  const bool odd = (len & 1) != 0;
  const float wt = odd ? wb.win[last][len - 1] * wxy : 0.0f;
  const cfloat* cell0 = row0 + wb.idx[last][0];
  for (index_t b = 0; b < nb; ++b) {
    const cfloat* cell = cell0 + sstride * static_cast<std::size_t>(b);
    const auto* p = reinterpret_cast<const float*>(cell);
    Vec4f rsum = pairs > 0 ? Vec4f::loadu(p) * w(0) : Vec4f::zero();
    for (int j = 1; j < pairs; ++j) rsum = simd::madd(Vec4f::loadu(p + 4 * j), w(j), rsum);
    accs[b] = accs[b] + rsum;
    if (odd) touts[b] += cell[len - 1] * wt;
  }
}

}  // namespace

template <int DIM, int G>
void scatter_slices_sse(cfloat* slab0, std::size_t sstride, index_t nb,
                        const std::array<index_t, 3>& strides, const WindowBuf& wb,
                        const cfloat* vals) {
  const index_t ns = G == 1 ? 1 : nb;
  Vec4f vsplat[G];
  for (index_t b = 0; b < ns; ++b) {
    vsplat[b] = Vec4f(vals[b].real(), vals[b].imag(), vals[b].real(), vals[b].imag());
  }
  detail::for_each_row<DIM>(wb, strides, [&](index_t off, float wxy) {
    scatter_row<G>(slab0 + off, sstride, ns, wb, DIM - 1, wxy, vsplat, vals);
  });
}

template <int DIM, int G>
void gather_slices_sse(const cfloat* slab0, std::size_t sstride, index_t nb,
                       const std::array<index_t, 3>& strides, const WindowBuf& wb,
                       cfloat* outs) {
  const index_t ns = G == 1 ? 1 : nb;
  Vec4f accs[G];
  cfloat touts[G];
  detail::for_each_row<DIM>(wb, strides, [&](index_t off, float wxy) {
    gather_row<G>(slab0 + off, sstride, ns, wb, DIM - 1, wxy, accs, touts);
  });
  for (index_t b = 0; b < ns; ++b) {
    const Vec4f ps = accs[b].hsum_complex_pairs();
    outs[b] = cfloat(ps[0], ps[1]) + touts[b];
  }
}

#define NUFFT_INSTANTIATE_SSE(DIM, G)                                                         \
  template void scatter_slices_sse<DIM, G>(cfloat*, std::size_t, index_t,                    \
                                           const std::array<index_t, 3>&, const WindowBuf&,  \
                                           const cfloat*);                                   \
  template void gather_slices_sse<DIM, G>(const cfloat*, std::size_t, index_t,               \
                                          const std::array<index_t, 3>&, const WindowBuf&,   \
                                          cfloat*);
NUFFT_INSTANTIATE_SSE(1, 1)
NUFFT_INSTANTIATE_SSE(2, 1)
NUFFT_INSTANTIATE_SSE(3, 1)
NUFFT_INSTANTIATE_SSE(1, kSlabGroup)
NUFFT_INSTANTIATE_SSE(2, kSlabGroup)
NUFFT_INSTANTIATE_SSE(3, kSlabGroup)
#undef NUFFT_INSTANTIATE_SSE

}  // namespace nufft
