// Template bodies of the convolution dispatch variants — included by the
// three per-backend registration TUs (conv_variants_{scalar,sse,avx2}.cpp)
// and instantiable from benches/tests for Part-1 micro-measurement.
//
// Per (backend, dim, evaluator) the registry holds one variant per
// calibrated width, with W a compile-time constant (W2 = 2W ∈ [4, 8]), and
// one runtime-W variant (W2 = 0) that every other width binds. Bit-identity
// contract: on the same plan, a constexpr-W variant produces bit-identical
// results to its runtime-W sibling. Two rules keep that true:
//
//   1. Part 1 is one template, detail::window_spec (core/window_span.hpp);
//      W2 only decides whether W folds at compile time. compute_window is
//      its runtime-W instantiation as well.
//   2. Every TU including this header is compiled at the baseline ISA. On a
//      TU built with -mavx2 -mfma the compiler may contract the a·b+c shapes
//      in the window/weight arithmetic into FMA, which changes rounding.
//      AVX2 work is reached only through *extern* functions that were
//      themselves audited for lane-exactness: the Part-2 kernels of
//      core/convolution_avx2.cpp and core/batch_conv_avx2.cpp, and
//      kernels::eval_window_avx2 (explicit mul+add intrinsics, never fmadd —
//      see kernels/horner_avx2.cpp).
//
// Batch width: at nb = 1 a variant runs the per-sample loop with the
// single-slice Part-2 kernels (core/convolution.hpp); at nb ≥ 2 it stages
// the windows of kSampleBlock samples once and sweeps them over kSlabGroup
// slabs at a time with the multi-slice kernels (core/batch_conv.hpp).
//
// What constexpr W buys (paper Part 1, the dominant phase at small W): the
// trim folds against a constant and the per-sample window loops get fixed
// trip counts; compile-time dim/evaluator/backend remove the per-element
// evaluator branch and the per-sample backend switch in every variant, and
// the AVX2+Horner combination evaluates the whole weight row 8 segments per
// instruction instead of riding the scalar recurrence.
#pragma once

#include <algorithm>
#include <cstdio>

#include "core/batch_conv.hpp"
#include "core/conv_dispatch.hpp"
#include "core/convolution.hpp"
#include "core/convolution_avx2.hpp"
#include "core/window_span.hpp"

namespace nufft::detail {

// Loop blocking of the batched (nb ≥ 2) entry: windows for kSampleBlock
// consecutive (sorted) samples are staged once, then swept over kSlabGroup
// slabs at a time. The block's windows overlap heavily after bucket sorting,
// so the touched grid region of a slab group stays cache-resident across the
// whole block, while the group width keeps the per-row weight-vector build
// amortized over several slices.
inline constexpr index_t kSampleBlock = 32;
inline constexpr index_t kSlabGroup = 8;

/// Part 1 for reordered sample i of the range, with the backend's weight
/// duplication (SIMD Part 2) and row evaluator.
template <ConvBackend B, int DIM, int W2, bool HORNER>
[[gnu::always_inline]] inline void sample_window(const ConvRange& a, index_t i, WindowBuf& wb) {
  float coord[3];
  for (int d = 0; d < DIM; ++d) {
    coord[d] = a.coords[static_cast<std::size_t>(d)][static_cast<std::size_t>(i)];
  }
  window_spec<DIM, W2, HORNER, B == ConvBackend::kAvx2 && HORNER>(
      *a.g, a.ev, coord, B != ConvBackend::kScalar, wb);
}

/// Rebase neighbour indices into a privatized task's box; the box covers the
/// partition plus the kernel radius, so no wrapping can occur.
template <int DIM>
[[gnu::always_inline]] inline void rebase_box(const index_t* box_lo, WindowBuf& wb) {
  for (int d = 0; d < DIM; ++d) {
    for (int t = 0; t < wb.len[d]; ++t) {
      wb.idx[d][t] = wb.start[d] + t - box_lo[d];
    }
  }
  wb.inner_contiguous = true;
}

// The batched (nb ≥ 2) loops are kept out of line: inlined, their staging
// buffers would inflate the frame and register pressure of the single-slice
// loop that every non-batched apply runs.
template <ConvBackend B, int DIM, int W2, bool HORNER>
[[gnu::noinline]] void spread_batch(const ConvRange& a, const cfloat* const* raws, index_t nb,
                                    cfloat* dst, std::size_t slab_stride,
                                    const std::array<index_t, 3>& strides) {
  WindowBuf wbs[kSampleBlock];
  cfloat vals[kSampleBlock * kMaxBatch];
  for (index_t s0 = a.begin; s0 < a.end; s0 += kSampleBlock) {
    const index_t sb = std::min<index_t>(kSampleBlock, a.end - s0);
    for (index_t i = 0; i < sb; ++i) {
      sample_window<B, DIM, W2, HORNER>(a, s0 + i, wbs[i]);
      if (a.box_lo != nullptr) rebase_box<DIM>(a.box_lo, wbs[i]);
      const index_t oi = a.orig_index[static_cast<std::size_t>(s0 + i)];
      for (index_t b = 0; b < nb; ++b) vals[i * kMaxBatch + b] = raws[b][oi];
    }
    if constexpr (B == ConvBackend::kScalar) {
      // Per-slab sample order is the single-slice order, so scalar batched
      // results are bit-identical to nb single applies.
      for (index_t b = 0; b < nb; ++b) {
        cfloat* slab = dst + static_cast<std::size_t>(b) * slab_stride;
        for (index_t i = 0; i < sb; ++i) {
          adj_scatter_scalar<DIM>(slab, strides, wbs[i], vals[i * kMaxBatch + b]);
        }
      }
    } else {
      for (index_t b0 = 0; b0 < nb; b0 += kSlabGroup) {
        const index_t gnb = std::min<index_t>(kSlabGroup, nb - b0);
        cfloat* group = dst + static_cast<std::size_t>(b0) * slab_stride;
        for (index_t i = 0; i < sb; ++i) {
          const cfloat* v = vals + i * kMaxBatch + b0;
          if constexpr (B == ConvBackend::kSse) {
            badj_scatter_sse<DIM>(group, slab_stride, gnb, strides, wbs[i], v);
          } else {
            badj_scatter_avx2<DIM>(group, slab_stride, gnb, strides, wbs[i], v);
          }
        }
      }
    }
  }
}

template <ConvBackend B, int DIM, int W2, bool HORNER>
[[gnu::noinline]] void interp_batch(const ConvRange& a, const cfloat* grid,
                                    std::size_t slab_stride,
                                    const std::array<index_t, 3>& strides, cfloat* const* outs,
                                    index_t nb) {
  WindowBuf wbs[kSampleBlock];
  index_t ois[kSampleBlock];
  cfloat vals[kMaxBatch];
  for (index_t s0 = a.begin; s0 < a.end; s0 += kSampleBlock) {
    const index_t sb = std::min<index_t>(kSampleBlock, a.end - s0);
    for (index_t i = 0; i < sb; ++i) {
      sample_window<B, DIM, W2, HORNER>(a, s0 + i, wbs[i]);
      ois[i] = a.orig_index[static_cast<std::size_t>(s0 + i)];
    }
    if constexpr (B == ConvBackend::kScalar) {
      for (index_t b = 0; b < nb; ++b) {
        const cfloat* slab = grid + static_cast<std::size_t>(b) * slab_stride;
        cfloat* out = outs[b];
        for (index_t i = 0; i < sb; ++i) out[ois[i]] = fwd_gather_scalar<DIM>(slab, strides, wbs[i]);
      }
    } else {
      for (index_t b0 = 0; b0 < nb; b0 += kSlabGroup) {
        const index_t gnb = std::min<index_t>(kSlabGroup, nb - b0);
        const cfloat* group = grid + static_cast<std::size_t>(b0) * slab_stride;
        for (index_t i = 0; i < sb; ++i) {
          if constexpr (B == ConvBackend::kSse) {
            bfwd_gather_sse<DIM>(group, slab_stride, gnb, strides, wbs[i], vals);
          } else {
            bfwd_gather_avx2<DIM>(group, slab_stride, gnb, strides, wbs[i], vals);
          }
          for (index_t b = 0; b < gnb; ++b) outs[b0 + b][ois[i]] = vals[b];
        }
      }
    }
  }
}

template <ConvBackend B, int DIM, int W2, bool HORNER>
void spread_range(const ConvRange& a, const cfloat* const* raws, index_t nb, cfloat* dst,
                  std::size_t slab_stride, const std::array<index_t, 3>& strides) {
  if (nb != 1) {
    spread_batch<B, DIM, W2, HORNER>(a, raws, nb, dst, slab_stride, strides);
    return;
  }
  const cfloat* raw = raws[0];
  WindowBuf wb;
  for (index_t i = a.begin; i < a.end; ++i) {
    sample_window<B, DIM, W2, HORNER>(a, i, wb);
    if (a.box_lo != nullptr) rebase_box<DIM>(a.box_lo, wb);
    const cfloat v = raw[a.orig_index[static_cast<std::size_t>(i)]];
    if constexpr (B == ConvBackend::kScalar) {
      adj_scatter_scalar<DIM>(dst, strides, wb, v);
    } else if constexpr (B == ConvBackend::kSse) {
      adj_scatter_simd<DIM>(dst, strides, wb, v);
    } else {
      adj_scatter_avx2<DIM>(dst, strides, wb, v);
    }
  }
}

template <ConvBackend B, int DIM, int W2, bool HORNER>
void interp_range(const ConvRange& a, const cfloat* grid, std::size_t slab_stride,
                  const std::array<index_t, 3>& strides, cfloat* const* outs, index_t nb) {
  if (nb != 1) {
    interp_batch<B, DIM, W2, HORNER>(a, grid, slab_stride, strides, outs, nb);
    return;
  }
  cfloat* out = outs[0];
  WindowBuf wb;
  for (index_t i = a.begin; i < a.end; ++i) {
    sample_window<B, DIM, W2, HORNER>(a, i, wb);
    cfloat v;
    if constexpr (B == ConvBackend::kScalar) {
      v = fwd_gather_scalar<DIM>(grid, strides, wb);
    } else if constexpr (B == ConvBackend::kSse) {
      v = fwd_gather_simd<DIM>(grid, strides, wb);
    } else {
      v = fwd_gather_avx2<DIM>(grid, strides, wb);
    }
    out[a.orig_index[static_cast<std::size_t>(i)]] = v;
  }
}

template <ConvBackend B, int DIM, int W2, bool HORNER>
ConvVariant make_variant() {
  ConvVariant v;
  v.key.backend = B;
  v.key.dim = static_cast<std::uint8_t>(DIM);
  v.key.width2 = static_cast<std::uint8_t>(W2);
  v.key.eval = HORNER ? kernels::KernelEval::kHorner : kernels::KernelEval::kLut;
  char width[8];
  if (W2 != 0) {
    std::snprintf(width, sizeof(width), "w%d", W2);
  } else {
    std::snprintf(width, sizeof(width), "wrt");  // runtime W
  }
  char name[32];
  std::snprintf(name, sizeof(name), "%s.d%d.%s.%s", conv_backend_name(B), DIM, width,
                HORNER ? "horner" : "lut");
  v.name = name;
  v.spread = &spread_range<B, DIM, W2, HORNER>;
  v.interp = &interp_range<B, DIM, W2, HORNER>;
  return v;
}

template <ConvBackend B, int DIM, int W2>
void add_width(std::vector<ConvVariant>& out) {
  out.push_back(make_variant<B, DIM, W2, false>());
  out.push_back(make_variant<B, DIM, W2, true>());
}

template <ConvBackend B, int DIM>
void add_dim(std::vector<ConvVariant>& out) {
  add_width<B, DIM, 0>(out);
  add_width<B, DIM, 4>(out);
  add_width<B, DIM, 5>(out);
  add_width<B, DIM, 6>(out);
  add_width<B, DIM, 7>(out);
  add_width<B, DIM, 8>(out);
}

/// Instantiate every (dim, width2, evaluator) combination of one backend.
template <ConvBackend B>
void register_backend(std::vector<ConvVariant>& out) {
  add_dim<B, 1>(out);
  add_dim<B, 2>(out);
  add_dim<B, 3>(out);
}

void append_scalar_variants(std::vector<ConvVariant>& out);
void append_sse_variants(std::vector<ConvVariant>& out);
void append_avx2_variants(std::vector<ConvVariant>& out);

}  // namespace nufft::detail
