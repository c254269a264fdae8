// Persistent worker-thread pool.
//
// The pool provides three primitives:
//   * run_on_all(fn)  — every execution context (caller thread + workers)
//     runs fn(tid) exactly once; used by the TDG scheduler, whose contexts
//     pull tasks from a shared queue until the graph drains.
//   * parallel_for    — dynamically chunked loop parallelism; used for the
//     forward (gather) convolution, FFT rows, and point-wise scaling.
//   * for_each_slice  — the per-slice batch schedule: whole slices of a batch
//     per context, each on a one-context pool; used by the batched FFT and
//     the Toeplitz apply.
//
// The caller's thread is execution context 0, so a pool of size T uses
// exactly T OS threads (T-1 workers), matching how the paper counts cores.
//
// Nesting: a run_on_all (or any helper built on it) issued while the pool is
// already executing a job — from inside a job body, or from a second thread —
// degrades to serial execution on the caller instead of deadlocking or
// asserting. Parallel preprocessing relies on this: a plan built from inside
// another pool's worker still completes, just without extra parallelism.
//
// Determinism building blocks for the preprocessing pipeline
// (core/preprocess.cpp): for_static_chunks() decomposes an index range into
// chunks that depend only on (n, nchunks) — never on the pool width or on
// scheduling — and column_exclusive_scan() turns per-chunk counts into
// per-chunk write cursors, so a chunked stable counting sort reproduces the
// serial sort bit-for-bit at any thread count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"

namespace nufft {

class ThreadPool {
 public:
  /// Create a pool with `nthreads` execution contexts (>= 1).
  explicit ThreadPool(int nthreads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of execution contexts (including the caller's thread).
  int size() const { return nthreads_; }

  /// Run fn(tid) once on every context, tid in [0, size()). Blocks until all
  /// contexts finish. Nested or concurrent invocations degrade to running
  /// fn(0) serially on the caller (see the header comment).
  void run_on_all(const std::function<void(int)>& fn);

  /// Dynamically scheduled parallel loop: fn(begin, end) over chunks of
  /// [0, n). `chunk` bounds the work grabbed per steal.
  void parallel_for(index_t n, index_t chunk, const std::function<void(index_t, index_t)>& fn);

  /// Convenience: parallel loop with a heuristic chunk size.
  void parallel_for(index_t n, const std::function<void(index_t, index_t)>& fn);

  /// As parallel_for, but hands the execution-context id to the body so
  /// callers can keep per-thread scratch (e.g. FFT row buffers).
  void parallel_for_tid(index_t n, index_t chunk,
                        const std::function<void(int, index_t, index_t)>& fn);

  /// The per-slice batch schedule: fn(ctx, b, slice_pool) once per slice
  /// b < nb, where fn runs all of slice b's work on slice_pool. With
  /// P = size() contexts, the first ⌊nb/P⌋·P slices run whole: each context
  /// takes one slice at a time and runs it on a one-context pool of its own
  /// (inline, no thread), so a slice stays on one core; ctx is that context.
  /// The nb mod P leftover slices then run one at a time on the caller with
  /// slice_pool = *this and ctx = 0, splitting each slice's work across the
  /// pool. Either way slice_pool's context t is context ctx + t of this
  /// pool, so per-context scratch indexed that way is never shared. A
  /// one-context pool runs every slice on itself.
  void for_each_slice(index_t nb, const std::function<void(int, index_t, ThreadPool&)>& fn);

  /// Deterministic static decomposition: split [0, n) into `nchunks` equal
  /// contiguous chunks (chunk c spans [c·n/nchunks, (c+1)·n/nchunks)) and run
  /// fn(chunk, begin, end) once per non-empty chunk, chunks dynamically
  /// assigned to contexts. The decomposition depends only on (n, nchunks), so
  /// per-chunk partial results (histograms, counting-sort cursors) are
  /// bit-identical at any pool width.
  void for_static_chunks(index_t n, int nchunks,
                         const std::function<void(int, index_t, index_t)>& fn);

  /// Column-wise exclusive scan, parallel over columns, of the row-major
  /// [nchunks × ncols] count matrix `m`, seeded by base: on return
  ///   m[c·ncols + j] = base[j] + Σ_{c' < c} old m[c'·ncols + j].
  /// Turns for_static_chunks() per-chunk counts into exact per-chunk write
  /// cursors for a stable parallel scatter.
  void column_exclusive_scan(std::vector<index_t>& m, int nchunks, index_t ncols,
                             const index_t* base);

  /// Process-wide pool sized from NUFFT_THREADS / hardware_concurrency.
  /// Intended for library entry points that were not handed a pool.
  static ThreadPool& global();

 private:
  void worker_loop(int tid);

  int nthreads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  int remaining_ = 0;
  bool shutdown_ = false;
  bool in_job_ = false;
};

}  // namespace nufft
