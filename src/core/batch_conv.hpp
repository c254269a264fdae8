// Multi-slice Part-2 convolution kernels: the batched (nb ≥ 2) entry of every
// dispatch variant (core/conv_variants.hpp).
//
// The single-transform kernels (core/convolution.{hpp,cpp}) weight one
// sample value into one grid; these weight B values — one per batch slice —
// through the *same* interpolation window into B slab-contiguous grids.
// Computing the window once per sample amortizes Part 1 over the batch, and
// hoisting the weight vectors out of the slice loop amortizes the weight
// loads and wxy multiplies that the single kernels redo per apply.
//
// Slabs are batch-major: slice b lives at slab0 + b·slab_stride, so each
// slice keeps the exact memory layout the single kernels were tuned for.
#pragma once

#include <array>
#include <cstddef>

#include "common/types.hpp"
#include "core/convolution.hpp"

namespace nufft {

/// Widest batch one kernel invocation handles; BatchNufft chunks above this.
inline constexpr index_t kMaxBatch = 16;

/// Adjoint (scatter): add vals[b]·weights into slab b, for b < nb.
template <int DIM>
void badj_scatter_sse(cfloat* slab0, std::size_t slab_stride, index_t nb,
                      const std::array<index_t, 3>& strides, const WindowBuf& wb,
                      const cfloat* vals);

/// Forward (gather): outs[b] = Σ window cells of slab b, for b < nb.
template <int DIM>
void bfwd_gather_sse(const cfloat* slab0, std::size_t slab_stride, index_t nb,
                     const std::array<index_t, 3>& strides, const WindowBuf& wb, cfloat* outs);

/// AVX2+FMA variants (convolution_avx2.hpp contract: gate on avx2_available).
template <int DIM>
void badj_scatter_avx2(cfloat* slab0, std::size_t slab_stride, index_t nb,
                       const std::array<index_t, 3>& strides, const WindowBuf& wb,
                       const cfloat* vals);

template <int DIM>
void bfwd_gather_avx2(const cfloat* slab0, std::size_t slab_stride, index_t nb,
                      const std::array<index_t, 3>& strides, const WindowBuf& wb, cfloat* outs);

}  // namespace nufft
