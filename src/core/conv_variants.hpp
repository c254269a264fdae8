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
//   1. Part 1 is one template, detail::window_block (core/window_span.hpp),
//      run by every variant on every backend; W2 only decides whether W
//      folds at compile time. Each of its SSE lanes runs the float
//      operations of compute_window, the per-sample reference, so the loop
//      equals a per-sample loop bitwise too.
//   2. Every TU including this header is compiled at the baseline ISA. On a
//      TU built with -mavx2 -mfma the compiler may contract the a·b+c shapes
//      in the window/weight arithmetic (the Horner steps' multiply-then-add
//      included) into FMA, which changes rounding. AVX2 work is reached only
//      through the *extern* AVX2 instantiation of the Part-2 kernels in
//      core/batch_conv_avx2.cpp, which is built with contraction off and
//      pinned to a lane model in the tests; Part 1 has no AVX2 code — every
//      backend runs the one SSE block. The backend picks only Part 2.
//
// Batch width: nb picks no kernel, only the slice-group width G of the
// backend's Part-2 kernels (core/batch_conv.hpp, one template over the
// vector width; scalar plans run adj_scatter_scalar / fwd_gather_scalar per
// slab). A single apply runs G = 1 per sample; a batch stages the windows of
// kSampleBlock samples once and sweeps them over kSlabGroup slabs at a time. At either width the
// sample values move between caller order and plan order in blocks (see
// spread_loop), which changes no arithmetic. Every slice runs the same
// arithmetic at either width, so slice b of an nb-slice call equals the
// nb = 1 call on slice b's data bitwise.
//
// What constexpr W buys (paper Part 1, the dominant phase at small W): the
// trim folds against a constant and the block's segment/tap groups get a
// compile-time bound; compile-time dim/evaluator/backend remove the
// per-element evaluator branch and the per-sample backend switch in every
// variant.
#pragma once

#include <algorithm>
#include <cstdio>

#include "core/batch_conv.hpp"
#include "core/conv_dispatch.hpp"
#include "core/convolution.hpp"
#include "core/window_span.hpp"

namespace nufft::detail {

// Loop blocking of a batch: windows for kSampleBlock consecutive (sorted)
// samples are staged once, then swept over kSlabGroup slabs at a time. The
// block's windows overlap heavily after bucket sorting, so the touched grid
// region of a slab group stays cache-resident across the whole block, while
// the group width keeps the per-row weight-vector build amortized over
// several slices.
inline constexpr index_t kSampleBlock = 32;

/// Samples per value block of a single apply (G = 1), see spread_loop. The
/// size barely matters once the misses overlap: single-threaded at the
/// stream2d_frames shape (2-D ES W = 2, 524k samples, SSE; min over 6
/// interleaved runs of 7 reps, on a host that drifts by up to 2×) the
/// spread took 32.7 ms at 256, 32.9 at 64 and 35.7 at 1024, and the interp
/// 37.4, 40.5 and 43.1 ms. A batch blocks its values by kSampleBlock; moving
/// them into tight loops there measured flat at the mri_cg3d shape (nb = 8
/// KB W = 4: spread 103.2 → 102.8 ms, interp median 93.5 → 93.8 ms).
inline constexpr index_t kValueBlock = 256;

static_assert(kSampleBlock % kBlockLanes == 0 && kValueBlock % kBlockLanes == 0,
              "window blocks tile the sample and value blocks");

/// Part 1 for the n reordered samples from `first` on into wbs[0, n): window
/// blocks of kBlockLanes samples, the last one padded with its last valid
/// sample, so wbs must hold n rounded up to a whole block.
template <ConvBackend B, int DIM, int W2, bool HORNER>
[[gnu::always_inline]] inline void stage_windows(const ConvRange& a, index_t first, index_t n,
                                                 WindowBuf* wbs) {
  for (index_t q = 0; q < n; q += kBlockLanes) {
    const auto lanes = static_cast<int>(std::min<index_t>(kBlockLanes, n - q));
    window_block<DIM, W2, HORNER>(*a.g, a.ev, a.coords, first + q, lanes,
                                  B != ConvBackend::kScalar, wbs + q);
  }
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

/// Part 2 of one sample over nb ≤ G slabs (slab b at slab0 + b·slab_stride):
/// a SIMD backend's instantiation of the one SIMD kernel template at
/// slice-group width G; the scalar backend runs its single-slab kernel per
/// slab.
template <ConvBackend B, int DIM, int G>
[[gnu::always_inline]] inline void scatter(cfloat* slab0, std::size_t slab_stride, index_t nb,
                                           const std::array<index_t, 3>& strides,
                                           const WindowBuf& wb, const cfloat* vals) {
  if constexpr (B == ConvBackend::kScalar) {
    for (index_t b = 0; b < (G == 1 ? 1 : nb); ++b) {
      adj_scatter_scalar<DIM>(slab0 + static_cast<std::size_t>(b) * slab_stride, strides, wb,
                              vals[b]);
    }
  } else {
    scatter_slices<B, DIM, G>(slab0, slab_stride, nb, strides, wb, vals);
  }
}

template <ConvBackend B, int DIM, int G>
[[gnu::always_inline]] inline void gather(const cfloat* slab0, std::size_t slab_stride,
                                          index_t nb, const std::array<index_t, 3>& strides,
                                          const WindowBuf& wb, cfloat* outs) {
  if constexpr (B == ConvBackend::kScalar) {
    for (index_t b = 0; b < (G == 1 ? 1 : nb); ++b) {
      outs[b] = fwd_gather_scalar<DIM>(slab0 + static_cast<std::size_t>(b) * slab_stride,
                                       strides, wb);
    }
  } else {
    gather_slices<B, DIM, G>(slab0, slab_stride, nb, strides, wb, outs);
  }
}

/// The sample loop at slice-group width G. It runs in value blocks: one
/// tight loop moves a block's sample values between caller order
/// (raws[b][orig_index[i]], outs[b][orig_index[i]]) and a plan-order stack
/// buffer — before Part 1 and Part 2 in the spread, after them in the
/// interp. Caller order is a random walk through memory, so at large sample
/// counts each value access misses cache; issued back to back, a block's
/// misses overlap instead of each one stalling its own sample's window.
/// Inside a value block the windows of kWindows samples are staged at once
/// (stage_windows), then each group of G slices runs through them.
///
/// A single apply (G = 1) has one group and nothing to amortize, so it
/// stages one window block (kWindows = kBlockLanes), only values beyond
/// that. The two differ in size: measured single-threaded on the
/// bench_layers shapes (SSE, min of 50), staging the windows of 32 samples
/// at G = 1 made the 2-D ES W = 2 spread and interp 13–16 % slower and the
/// 3-D ES W = 3 spread 9 % slower (a WindowBuf is about 1 KB, so 32 of them
/// fill L1), while a value is 8 bytes per sample and slice and a block of
/// kValueBlock stays in L1. A batch (G = kSlabGroup) stages kSampleBlock
/// samples, windows and values, so one Part 1 serves every group.
template <ConvBackend B, int DIM, int W2, bool HORNER, int G>
[[gnu::noinline]] void spread_loop(const ConvRange& a, const cfloat* const* raws, index_t nb,
                                   cfloat* dst, std::size_t slab_stride,
                                   const std::array<index_t, 3>& strides) {
  constexpr index_t kBlock = G == 1 ? kValueBlock : kSampleBlock;
  constexpr index_t kWindows = G == 1 ? kBlockLanes : kSampleBlock;
  constexpr index_t kSlices = G == 1 ? 1 : kMaxBatch;
  WindowBuf wbs[kWindows];
  cfloat vals[kBlock * kSlices];
  for (index_t s0 = a.begin; s0 < a.end; s0 += kBlock) {
    const index_t sb = std::min<index_t>(kBlock, a.end - s0);
    const index_t* oi = a.orig_index + s0;
    for (index_t b = 0; b < nb; ++b) {
      for (index_t i = 0; i < sb; ++i) vals[i * kSlices + b] = raws[b][oi[i]];
    }
    for (index_t w0 = 0; w0 < sb; w0 += kWindows) {
      const index_t wn = std::min<index_t>(kWindows, sb - w0);
      stage_windows<B, DIM, W2, HORNER>(a, s0 + w0, wn, wbs);
      if (a.box_lo != nullptr) {
        for (index_t i = 0; i < wn; ++i) rebase_box<DIM>(a.box_lo, wbs[i]);
      }
      for (index_t b0 = 0; b0 < nb; b0 += G) {
        const index_t gnb = std::min<index_t>(G, nb - b0);
        cfloat* group = dst + static_cast<std::size_t>(b0) * slab_stride;
        for (index_t i = 0; i < wn; ++i) {
          scatter<B, DIM, G>(group, slab_stride, gnb, strides, wbs[i],
                             vals + (w0 + i) * kSlices + b0);
        }
      }
    }
  }
}

template <ConvBackend B, int DIM, int W2, bool HORNER, int G>
[[gnu::noinline]] void interp_loop(const ConvRange& a, const cfloat* grid,
                                   std::size_t slab_stride,
                                   const std::array<index_t, 3>& strides, cfloat* const* outs,
                                   index_t nb) {
  constexpr index_t kBlock = G == 1 ? kValueBlock : kSampleBlock;
  constexpr index_t kWindows = G == 1 ? kBlockLanes : kSampleBlock;
  constexpr index_t kSlices = G == 1 ? 1 : kMaxBatch;
  WindowBuf wbs[kWindows];
  cfloat vals[kBlock * kSlices];
  for (index_t s0 = a.begin; s0 < a.end; s0 += kBlock) {
    const index_t sb = std::min<index_t>(kBlock, a.end - s0);
    for (index_t w0 = 0; w0 < sb; w0 += kWindows) {
      const index_t wn = std::min<index_t>(kWindows, sb - w0);
      stage_windows<B, DIM, W2, HORNER>(a, s0 + w0, wn, wbs);
      for (index_t b0 = 0; b0 < nb; b0 += G) {
        const index_t gnb = std::min<index_t>(G, nb - b0);
        const cfloat* group = grid + static_cast<std::size_t>(b0) * slab_stride;
        for (index_t i = 0; i < wn; ++i) {
          gather<B, DIM, G>(group, slab_stride, gnb, strides, wbs[i],
                            vals + (w0 + i) * kSlices + b0);
        }
      }
    }
    const index_t* oi = a.orig_index + s0;
    for (index_t b = 0; b < nb; ++b) {
      for (index_t i = 0; i < sb; ++i) outs[b][oi[i]] = vals[i * kSlices + b];
    }
  }
}

// nb only sets the slice-group width: every slice runs the same per-slice
// arithmetic at either width, so slice b of any batch equals its nb = 1 call.
template <ConvBackend B, int DIM, int W2, bool HORNER>
void spread_range(const ConvRange& a, const cfloat* const* raws, index_t nb, cfloat* dst,
                  std::size_t slab_stride, const std::array<index_t, 3>& strides) {
  if (nb == 1) {
    spread_loop<B, DIM, W2, HORNER, 1>(a, raws, nb, dst, slab_stride, strides);
  } else {
    spread_loop<B, DIM, W2, HORNER, kSlabGroup>(a, raws, nb, dst, slab_stride, strides);
  }
}

template <ConvBackend B, int DIM, int W2, bool HORNER>
void interp_range(const ConvRange& a, const cfloat* grid, std::size_t slab_stride,
                  const std::array<index_t, 3>& strides, cfloat* const* outs, index_t nb) {
  if (nb == 1) {
    interp_loop<B, DIM, W2, HORNER, 1>(a, grid, slab_stride, strides, outs, nb);
  } else {
    interp_loop<B, DIM, W2, HORNER, kSlabGroup>(a, grid, slab_stride, strides, outs, nb);
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
