// The plan's oversampled FFT: a pruned row-column transform over nb
// slab-contiguous grids (nb = 1 for a single apply).
//
// Two throughput levers a full multi-dimensional FFT (fft::FftNd) cannot use:
//
//  * Pruning. The NUFFT only populates (forward) or reads back (adjoint) the
//    zero-pad "corner" rows of the oversampled grid — the wrapped image
//    indices [0, n−n/2) ∪ [m−n/2, m) per dimension. Forward passes restrict
//    the not-yet-transformed row coordinates to those corners (every skipped
//    row is exactly zero); adjoint passes restrict the already-transformed
//    coordinates (non-corner outputs are never read by grid_to_image). At
//    α = 2 in 3D this drops the row count to (¼ + ½ + 1)/3 ≈ 58%.
//
//  * Column-interleaved SIMD stages. Each pass moves a block of up to 8
//    adjacent rows, times the nb slices, into a buffer element-interleaved
//    (element k of row j, slice b at buf[k·cols + j·nb + b]) and pushes it
//    through Stockham stages whose sub-transform stride starts at the column
//    count instead of 1. The stage arithmetic is unchanged, but the inner
//    loop now runs over contiguous columns sharing one twiddle, which
//    vectorizes: one twiddle load per butterfly instead of per row, and a
//    single transform (nb = 1) fills its vectors from neighbouring rows.
//    A strided axis blocks rows along the contiguous dimension, so each
//    gathered piece of a line is up to 8 complex values (64 bytes, a cache
//    line's worth); the contiguous axis blocks rows along the next axis out,
//    whose rows are whole grid lines. A block never crosses a gap between
//    corner runs. The copy loops walk the slabs at unit stride in 2×2
//    complex tiles; zeroed pad columns round a short block up to the vector
//    width. The stages are one template over the vector type
//    (core/batch_fft_stages.hpp), run at SSE width (2 complex columns per op)
//    or AVX2 width (4, with the complex multiply's first product fused).
//
// Every pow2 axis of a SIMD plan takes the column stages at every nb; scalar
// plans and Bluestein axes run rows through the per-axis Fft1d plans. The
// forward walks the axes ascending, the inverse descending, whatever nb is;
// each axis pass records one `nufft.fft.axis` span (arg = the axis).
//
// Batch-width contract: columns never mix (every lane of a stage runs the
// same arithmetic on its own column), so slice b of an nb-slice transform
// equals the nb = 1 transform of slice b bitwise, on every backend.
#pragma once

#include <array>
#include <vector>

#include "common/aligned.hpp"
#include "common/types.hpp"
#include "core/convolution_avx2.hpp"
#include "core/grid.hpp"
#include "fft/fft1d.hpp"
#include "parallel/thread_pool.hpp"

namespace nufft {

class BatchFft {
 public:
  /// Plans every axis of `g` in both directions. `wrap[d]` maps image index
  /// → grid index along dim d; the rows it hits are the corner rows. `avx2`
  /// runs the column stages at AVX2 width instead of SSE width (it requires
  /// avx2_available()); plans take the widest the CPU runs.
  BatchFft(const GridDesc& g, const std::array<std::vector<index_t>, 3>& wrap,
           bool avx2 = avx2_available());

  /// In-place transform of nb slabs (slab b at slabs + b·grid_elems()).
  /// `batched_stages` (the plan is SIMD) runs every pow2 axis through the
  /// column-interleaved stages; rows fall back to the axis Fft1d otherwise.
  void transform(cfloat* slabs, index_t nb, fft::Direction dir, ThreadPool& pool,
                 bool batched_stages) const;

 private:
  struct AxisStages {
    std::vector<aligned_vector<cfloat>> tw;  // per-stage twiddle tables
    std::vector<int> radix;                  // 4 or 2, matching Fft1d's plan
  };

  void axis_pass(cfloat* slabs, index_t nb, std::size_t axis, fft::Direction dir,
                 ThreadPool& pool, bool batched_stages) const;

  GridDesc g_;
  std::array<std::vector<index_t>, 3> corner_;
  std::array<std::vector<index_t>, 3> full_;
  std::array<index_t, 3> st_{1, 1, 1};
  index_t slab_elems_ = 0;
  std::vector<fft::Fft1d<float>> plans_fwd_;  // one per axis
  std::vector<fft::Fft1d<float>> plans_inv_;
  std::array<AxisStages, 3> stages_fwd_;
  std::array<AxisStages, 3> stages_inv_;
  std::array<bool, 3> pow2_{false, false, false};
  bool avx2_ = false;
};

}  // namespace nufft
