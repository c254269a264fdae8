// Batched NUFFT: apply one plan to B right-hand sides in a single pass
// (paper §V-E taken to its production conclusion — the cuFINUFFT-style
// multi-vector execution model).
//
// What one batched pass amortizes over B slices, relative to B sequential
// single applies on the same plan:
//
//  * Part 1 of the convolution — each sample's interpolation window is
//    computed once and reused for every slice (the window depends only on
//    the trajectory, not on the data).
//  * The scheduler — one TDG / priority-queue walk convolves all B slices
//    per task, so fork/join and queue traffic are paid once.
//  * Part 2 weight vectors — the multi-slice kernels (core/batch_conv.hpp)
//    hoist the wxy·win products out of the slice loop.
//  * The FFT — pruned to the populated corner rows and run with
//    column-interleaved batched Stockham stages (batch_fft.hpp).
//
// The convolution is the plan's own bound dispatch variant
// (core/conv_dispatch.hpp) called with the batch width, through the same
// Nufft::run_interp / run_spread a single apply uses; scale/chop/rolloff is
// the plan's fused pass, once per slab. What is batch-specific here is the
// slab storage, the chunking and the privatized-box downgrade.
//
// Grid layout: B slabs, batch-major — slice b's oversampled grid occupies
// [b·grid_elems(), (b+1)·grid_elems()). Within a slab the layout is exactly
// the single-transform grid, so every tuned row kernel applies unchanged and
// the per-slice FFT needs no transpose. (A batch-innermost per-cell layout
// was considered and rejected: it vectorizes the scatter across the batch
// but forces a full transpose before the FFT and abandons the tuned
// unit-stride row kernels; see DESIGN.md §7.)
//
// Concurrency: a BatchNufft owns its slabs, so one instance serves one
// caller at a time — it is the batched analogue of a Workspace. The plan is
// only read; any number of BatchNufft instances (and Workspace applies) may
// run concurrently on one plan, each with its own ThreadPool.
//
// Determinism: in scalar mode (PlanConfig::use_simd = false) with one
// thread, batched results are bit-identical to B single applies — the
// per-slice scatter/gather/FFT operations execute in the same order with
// the same associations. The SIMD multi-slice kernels re-associate weight
// products across the batch and match to rounding (tests pin 1e-5). A
// one-slice chunk (B = 1, or a one-slice tail after chunking at max_batch())
// runs the single-slice kernels and equals a single apply's convolution
// bitwise.
#pragma once

#include <memory>
#include <vector>

#include "common/types.hpp"
#include "core/nufft.hpp"
#include "core/stats.hpp"
#include "exec/batch_fft.hpp"

namespace nufft::exec {

class BatchNufft {
 public:
  /// Size the batch buffers for up to `max_batch` slices per pass (clamped
  /// to kMaxBatch; larger applies are processed in chunks). The plan must
  /// outlive this object.
  BatchNufft(const Nufft& plan, index_t max_batch);
  ~BatchNufft();

  BatchNufft(const BatchNufft&) = delete;
  BatchNufft& operator=(const BatchNufft&) = delete;

  const Nufft& plan() const { return *plan_; }
  index_t max_batch() const { return capacity_; }

  // Pointer-per-slice API: images[b] is an image_elems() array, raws[b] a
  // sample_count() array, b < nb. The pool-less overloads run on the plan's
  // own pool (single caller at a time, like the plan's convenience API);
  // pass an explicit pool for concurrent use.
  void forward(const cfloat* const* images, cfloat* const* raws, index_t nb);
  void forward(const cfloat* const* images, cfloat* const* raws, index_t nb, ThreadPool& pool);
  void adjoint(const cfloat* const* raws, cfloat* const* images, index_t nb);
  void adjoint(const cfloat* const* raws, cfloat* const* images, index_t nb, ThreadPool& pool);

  // Contiguous convenience: slice b at base + b·image_elems() / sample_count().
  void forward(const cfloat* images, cfloat* raws, index_t nb);
  void adjoint(const cfloat* raws, cfloat* images, index_t nb);

  /// Phase timings summed over the batch's chunks of the last apply.
  const OperatorStats& last_forward_stats() const { return fwd_stats_; }
  const OperatorStats& last_adjoint_stats() const { return adj_stats_; }
  const std::vector<TraceEvent>& last_trace() const { return trace_; }

  /// Graceful-degradation state (also mirrored into the per-apply stats):
  /// true once a privatization-buffer allocation failure has downgraded
  /// this instance to the direct-scatter path.
  bool privatization_downgraded() const { return privatization_downgraded_; }

 private:
  void forward_chunk(const cfloat* const* images, cfloat* const* raws, index_t nb,
                     ThreadPool& pool);
  void adjoint_chunk(const cfloat* const* raws, cfloat* const* images, index_t nb,
                     ThreadPool& pool);
  cfloat* slab(index_t b) { return slabs_.data() + static_cast<std::size_t>(b) * slab_elems_; }

  const Nufft* plan_;
  index_t capacity_ = 0;
  std::size_t slab_elems_ = 0;
  // Set when the private reduction buffers could not be allocated: spreads
  // run every task through the TDG-serialized direct-scatter path instead.
  bool privatization_downgraded_ = false;
  std::vector<char> privatized_off_;   // all-zero mask used when downgraded
  cvecf slabs_;                        // capacity · grid_elems(), batch-major
  std::vector<cvecf> private_slabs_;   // per privatized task: capacity · box_elems
  BatchFft bfft_;
  OperatorStats fwd_stats_;
  OperatorStats adj_stats_;
  std::vector<TraceEvent> trace_;
};

}  // namespace nufft::exec
