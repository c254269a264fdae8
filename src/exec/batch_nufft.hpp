// Batched NUFFT: apply one plan to B right-hand sides in a single pass
// (paper §V-E taken to its production conclusion — the cuFINUFFT-style
// multi-vector execution model).
//
// A BatchNufft is a thin adapter over (plan, Workspace): it owns a
// workspace of capacity max_batch() and forwards every apply to the plan's
// one driver (Nufft::forward/adjoint with nb slices, core/nufft.hpp). It has
// no pipeline of its own; a single transform is the same driver at nb = 1.
//
// What one batched pass amortizes over B slices, relative to B sequential
// single applies on the same plan:
//
//  * Part 1 of the convolution — each sample's interpolation window is
//    computed once and reused for every slice (the window depends only on
//    the trajectory, not on the data).
//  * The scheduler — one TDG / priority-queue walk convolves all B slices
//    per task, so fork/join and queue traffic are paid once.
//  * Part 2 weight vectors — the Part-2 kernels (core/batch_conv.hpp) build
//    the wxy·win products once per row for a group of slices.
//  * The FFT — column-interleaved batched Stockham stages over the plan's
//    pruned transform (core/batch_fft.hpp).
//
// Grid layout: B slabs, batch-major — slice b's oversampled grid occupies
// [b·grid_elems(), (b+1)·grid_elems()). Within a slab the layout is exactly
// the single-transform grid, so every tuned row kernel applies unchanged and
// the per-slice FFT needs no transpose. (A batch-innermost per-cell layout
// was considered and rejected: it vectorizes the scatter across the batch
// but forces a full transpose before the FFT and abandons the tuned
// unit-stride row kernels; see DESIGN.md §7.)
//
// Concurrency: a BatchNufft owns its workspace, so one instance serves one
// caller at a time. The plan is only read; any number of BatchNufft
// instances (and Workspace applies) may run concurrently on one plan, each
// with its own ThreadPool.
//
// Determinism: on every backend (scalar, SSE, AVX2), slice b of a batched
// apply is bit-identical to the single apply of slice b, whatever B and
// max_batch() are. The convolution runs the same per-slice arithmetic at any
// slice-group width, and the plan's FFT never mixes slices (see
// core/batch_conv.hpp and core/batch_fft.hpp).
#pragma once

#include <vector>

#include "common/types.hpp"
#include "core/nufft.hpp"
#include "core/stats.hpp"

namespace nufft::exec {

class BatchNufft {
 public:
  /// Size the workspace for up to `max_batch` slices per pass (clamped to
  /// kMaxBatch; larger applies are processed in chunks). The plan must
  /// outlive this object.
  BatchNufft(const Nufft& plan, index_t max_batch);

  BatchNufft(const BatchNufft&) = delete;
  BatchNufft& operator=(const BatchNufft&) = delete;

  const Nufft& plan() const { return *plan_; }
  index_t max_batch() const { return ws_.capacity; }

  // Pointer-per-slice API: images[b] is an image_elems() array, raws[b] a
  // sample_count() array, b < nb. The pool-less overloads run on the plan's
  // own pool (single caller at a time, like the plan's convenience API);
  // pass an explicit pool for concurrent use.
  void forward(const cfloat* const* images, cfloat* const* raws, index_t nb) {
    forward(images, raws, nb, plan_->pool());
  }
  void forward(const cfloat* const* images, cfloat* const* raws, index_t nb, ThreadPool& pool) {
    plan_->forward(images, raws, nb, ws_, pool);
  }
  void adjoint(const cfloat* const* raws, cfloat* const* images, index_t nb) {
    adjoint(raws, images, nb, plan_->pool());
  }
  void adjoint(const cfloat* const* raws, cfloat* const* images, index_t nb, ThreadPool& pool) {
    plan_->adjoint(raws, images, nb, ws_, pool);
  }

  // Contiguous convenience: slice b at base + b·image_elems() / sample_count().
  void forward(const cfloat* images, cfloat* raws, index_t nb);
  void adjoint(const cfloat* raws, cfloat* images, index_t nb);

  /// Phase timings summed over the batch's chunks of the last apply.
  const OperatorStats& last_forward_stats() const { return ws_.fwd_stats; }
  const OperatorStats& last_adjoint_stats() const { return ws_.adj_stats; }
  const std::vector<TraceEvent>& last_trace() const { return ws_.trace; }

  /// Graceful-degradation state (also mirrored into the per-apply stats):
  /// true once a privatization-buffer allocation failure has downgraded
  /// this instance's workspace to the direct-scatter path.
  bool privatization_downgraded() const { return ws_.privatization_downgraded; }

 private:
  const Nufft* plan_;
  Workspace ws_;
};

}  // namespace nufft::exec
