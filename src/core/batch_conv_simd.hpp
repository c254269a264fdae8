// Internal: the SIMD Part-2 kernels of batch_conv.hpp, written once over the
// vector type V (simd::Vec4f or simd::Vec8f, which share one vocabulary).
// Included only by the two kernel TUs. Each picks V for its backend by
// specializing detail::SimdVec and instantiates the kernels with
// NUFFT_INSTANTIATE_PART2: batch_conv.cpp (SSE, baseline ISA) and
// batch_conv_avx2.cpp (AVX2, compiled with -mavx2 -mfma -ffp-contract=off, so
// its only fused operations are the explicit madd ones and the scalar tails
// round alike in every slice-group instantiation).
#pragma once

#include "core/batch_conv.hpp"

namespace nufft {

namespace detail {

/// The vector type of a SIMD backend (`using type = …`), specialized by the
/// backend's kernel TU.
template <ConvBackend B>
struct SimdVec;

// One weighted row, scattered into the group's slabs. A contiguous row is
// len / kComplex whole vectors plus up to kComplex − 1 trailing cells, which
// keep the scalar multiply-then-add of the wrapped path (at most one such
// cell on SSE, up to three on AVX2).
// The weight vectors win_dup·wxy are built once per row and reused across
// the slice loop (as plain locals: stores through the vector accumulators
// may alias any object whose address escapes); at G = 1 each is used once,
// so it is built where it is used — the same product, without the store and
// reload (hoisting it at G = 1 too measured 2–17 % slower in the one-thread
// nb = 1 gather and up to 9 % in the scatter, 3-D W = 6 and 8, SSE and
// AVX2, on an AVX2+FMA Xeon). Wrapped windows (boundary samples only) take
// the indexed path with the same per-cell weights w·wxy.
template <class V, int G>
[[gnu::always_inline]] inline void scatter_row(cfloat* row0, std::size_t sstride, index_t nb,
                                               const WindowBuf& wb, int last, float wxy,
                                               const V* vsplat, const cfloat* vals) {
  constexpr int kC = V::kComplex;
  const int len = wb.len[last];
  if (!wb.inner_contiguous) {
    for (index_t b = 0; b < nb; ++b) {
      cfloat* row = row0 + sstride * static_cast<std::size_t>(b);
      for (int t = 0; t < len; ++t) row[wb.idx[last][t]] += vals[b] * (wb.win[last][t] * wxy);
    }
    return;
  }
  const int nvec = len / kC;
  const int ntail = len - kC * nvec;
  const V wxyv(wxy);
  const auto weight = [&](int j) { return V::load(wb.win_dup + 2 * kC * j) * wxyv; };
  V wv[G == 1 ? 1 : WindowBuf::kMaxLen / kC];
  if constexpr (G > 1) {
    for (int j = 0; j < nvec; ++j) wv[j] = weight(j);
  }
  const auto w = [&](int j) { return G == 1 ? weight(j) : wv[j]; };
  float wtail[kC - 1];
  for (int t = 0; t < kC - 1; ++t) wtail[t] = t < ntail ? wb.win[last][kC * nvec + t] * wxy : 0.0f;
  cfloat* cell0 = row0 + wb.idx[last][0];
  for (index_t b = 0; b < nb; ++b) {
    cfloat* cell = cell0 + sstride * static_cast<std::size_t>(b);
    auto* p = reinterpret_cast<float*>(cell);
    for (int j = 0; j < nvec; ++j) {
      madd(vsplat[b], w(j), V::loadu(p + 2 * kC * j)).storeu(p + 2 * kC * j);
    }
    for (int t = 0; t < kC - 1; ++t) {
      if (t < ntail) cell[kC * nvec + t] += vals[b] * wtail[t];
    }
  }
}

// One weighted row, gathered from the group's slabs into the per-slice
// vector accumulators (folded once per sample by the caller). Each row sums
// into a fresh vector, started from its first product, before joining the
// accumulator: at G = 1 the rows are then independent dependency chains
// rather than one chain through every cell of the window. Trailing-cell and
// wrapped-window contributions go to the scalar accumulators `touts`.
template <class V, int G>
[[gnu::always_inline]] inline void gather_row(const cfloat* row0, std::size_t sstride,
                                              index_t nb, const WindowBuf& wb, int last,
                                              float wxy, V* accs, cfloat* touts) {
  constexpr int kC = V::kComplex;
  const int len = wb.len[last];
  if (!wb.inner_contiguous) {
    for (index_t b = 0; b < nb; ++b) {
      const cfloat* row = row0 + sstride * static_cast<std::size_t>(b);
      for (int t = 0; t < len; ++t) touts[b] += row[wb.idx[last][t]] * (wb.win[last][t] * wxy);
    }
    return;
  }
  const int nvec = len / kC;
  const int ntail = len - kC * nvec;
  const V wxyv(wxy);
  const auto weight = [&](int j) { return V::load(wb.win_dup + 2 * kC * j) * wxyv; };
  V wv[G == 1 ? 1 : WindowBuf::kMaxLen / kC];
  if constexpr (G > 1) {
    for (int j = 0; j < nvec; ++j) wv[j] = weight(j);
  }
  const auto w = [&](int j) { return G == 1 ? weight(j) : wv[j]; };
  float wtail[kC - 1];
  for (int t = 0; t < kC - 1; ++t) wtail[t] = t < ntail ? wb.win[last][kC * nvec + t] * wxy : 0.0f;
  const cfloat* cell0 = row0 + wb.idx[last][0];
  for (index_t b = 0; b < nb; ++b) {
    const cfloat* cell = cell0 + sstride * static_cast<std::size_t>(b);
    const auto* p = reinterpret_cast<const float*>(cell);
    V rsum = nvec > 0 ? V::loadu(p) * w(0) : V::zero();
    for (int j = 1; j < nvec; ++j) rsum = madd(V::loadu(p + 2 * kC * j), w(j), rsum);
    accs[b] = accs[b] + rsum;
    for (int t = 0; t < kC - 1; ++t) {
      if (t < ntail) touts[b] += cell[kC * nvec + t] * wtail[t];
    }
  }
}

}  // namespace detail

template <ConvBackend B, int DIM, int G>
void scatter_slices(cfloat* slab0, std::size_t sstride, index_t nb,
                    const std::array<index_t, 3>& strides, const WindowBuf& wb,
                    const cfloat* vals) {
  using V = typename detail::SimdVec<B>::type;
  const index_t ns = G == 1 ? 1 : nb;
  V vsplat[G];
  for (index_t b = 0; b < ns; ++b) vsplat[b] = V::pairs(vals[b].real(), vals[b].imag());
  detail::for_each_row<DIM>(wb, strides, [&](index_t off, float wxy) {
    detail::scatter_row<V, G>(slab0 + off, sstride, ns, wb, DIM - 1, wxy, vsplat, vals);
  });
}

template <ConvBackend B, int DIM, int G>
void gather_slices(const cfloat* slab0, std::size_t sstride, index_t nb,
                   const std::array<index_t, 3>& strides, const WindowBuf& wb, cfloat* outs) {
  using V = typename detail::SimdVec<B>::type;
  const index_t ns = G == 1 ? 1 : nb;
  V accs[G];
  cfloat touts[G];
  detail::for_each_row<DIM>(wb, strides, [&](index_t off, float wxy) {
    detail::gather_row<V, G>(slab0 + off, sstride, ns, wb, DIM - 1, wxy, accs, touts);
  });
  for (index_t b = 0; b < ns; ++b) {
    float re = 0.0f, im = 0.0f;
    accs[b].hsum_complex(re, im);
    outs[b] = cfloat(re, im) + touts[b];
  }
}

}  // namespace nufft

// One backend's kernels at d 1–3 × G ∈ {1, kSlabGroup}, for use in
// namespace nufft.
#define NUFFT_INSTANTIATE_PART2_AT(B, DIM, G)                                                 \
  template void scatter_slices<B, DIM, G>(cfloat*, std::size_t, index_t,                      \
                                          const std::array<index_t, 3>&, const WindowBuf&,    \
                                          const cfloat*);                                     \
  template void gather_slices<B, DIM, G>(const cfloat*, std::size_t, index_t,                 \
                                         const std::array<index_t, 3>&, const WindowBuf&,     \
                                         cfloat*);
#define NUFFT_INSTANTIATE_PART2(B)              \
  NUFFT_INSTANTIATE_PART2_AT(B, 1, 1)           \
  NUFFT_INSTANTIATE_PART2_AT(B, 2, 1)           \
  NUFFT_INSTANTIATE_PART2_AT(B, 3, 1)           \
  NUFFT_INSTANTIATE_PART2_AT(B, 1, kSlabGroup)  \
  NUFFT_INSTANTIATE_PART2_AT(B, 2, kSlabGroup)  \
  NUFFT_INSTANTIATE_PART2_AT(B, 3, kSlabGroup)
