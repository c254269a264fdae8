// SIMD Part-2 convolution kernels behind every SIMD dispatch variant
// (core/conv_variants.hpp): one template over the vector type
// (core/batch_conv_simd.hpp), instantiated for SSE with simd::Vec4f in
// batch_conv.cpp and for AVX2+FMA with simd::Vec8f in batch_conv_avx2.cpp.
// The widths round alike except in madd, which is fused on AVX2 only.
//
// A kernel weights G values — one per batch slice — through the *same*
// interpolation window into G slab-contiguous grids. G is the slice-group
// width, a compile-time parameter: a single apply runs the G = 1
// instantiation (no slice loop, accumulators in registers), a batch runs
// groups of up to kSlabGroup slices. Computing the window once per sample
// amortizes Part 1 over the group, and building each row's weight vectors
// once amortizes the weight loads and wxy multiplies.
//
// The per-slice arithmetic does not depend on G: every row's weights are
// premultiplied as w·wxy (contiguous and wrapped rows alike), the gather
// sums each row into a fresh vector before adding it to the slice's vector
// accumulator (so at G = 1 the rows are independent dependency chains) and
// folds that accumulator once per sample, and vector lanes never mix
// slices. So slice b of a G-wide call equals a width-1 call on slice b's
// data bitwise. The SSE adjoint also equals the scalar adj_scatter_scalar
// (core/convolution.hpp) bitwise, and the tests pin both instantiations to
// a scalar model of their lane arithmetic.
//
// Slabs are batch-major: slice b lives at slab0 + b·slab_stride.
#pragma once

#include <array>
#include <cstddef>

#include "common/types.hpp"
#include "core/conv_dispatch.hpp"
#include "core/convolution.hpp"

namespace nufft {

/// Widest chunk one driver call convolves (Workspace::capacity's bound).
inline constexpr index_t kMaxBatch = 16;

/// Slice-group width of the batched kernels; nb slices run in
/// ⌈nb / kSlabGroup⌉ groups. The kernels are instantiated for G = 1 and
/// G = kSlabGroup.
inline constexpr int kSlabGroup = 8;

/// Adjoint (scatter): add vals[b]·weights into slab b, for b < nb ≤ G. One
/// template over the SIMD backend B ∈ {kSse, kAvx2}; kAvx2 requires
/// avx2_available() (core/convolution_avx2.hpp).
template <ConvBackend B, int DIM, int G>
void scatter_slices(cfloat* slab0, std::size_t slab_stride, index_t nb,
                    const std::array<index_t, 3>& strides, const WindowBuf& wb,
                    const cfloat* vals);

/// Forward (gather): outs[b] = Σ window cells of slab b, for b < nb ≤ G.
template <ConvBackend B, int DIM, int G>
void gather_slices(const cfloat* slab0, std::size_t slab_stride, index_t nb,
                   const std::array<index_t, 3>& strides, const WindowBuf& wb, cfloat* outs);

namespace detail {

/// Calls row(offset, wxy) for every last-dim row of the window: the grid
/// offset of the row and the product of its leading-dim weights (1 in 1-D).
template <int DIM, class RowFn>
[[gnu::always_inline]] inline void for_each_row(const WindowBuf& wb,
                                                const std::array<index_t, 3>& strides,
                                                RowFn&& row) {
  if constexpr (DIM == 1) {
    row(index_t{0}, 1.0f);
  } else if constexpr (DIM == 2) {
    for (int iy = 0; iy < wb.len[0]; ++iy) row(wb.idx[0][iy] * strides[0], wb.win[0][iy]);
  } else {
    for (int ix = 0; ix < wb.len[0]; ++ix) {
      const index_t base = wb.idx[0][ix] * strides[0];
      const float wx = wb.win[0][ix];
      for (int iy = 0; iy < wb.len[1]; ++iy) {
        row(base + wb.idx[1][iy] * strides[1], wx * wb.win[1][iy]);
      }
    }
  }
}

}  // namespace detail

}  // namespace nufft
