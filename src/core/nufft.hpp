// The NUFFT operator pair (paper §II-B):
//
//   forward:  F(w) = Σ_n f[n] · e^{-2πi (w - M/2)·n / M},   n centered
//   adjoint:  the exact algebraic adjoint of forward
//
// evaluated approximately in O(M^d log M + K·(2W)^d) as
//   forward = interp ∘ FFT ∘ scale      (scale = rolloff × chop)
//   adjoint = scale ∘ IFFT ∘ spread
//
// Sample coordinates are in oversampled-grid units, w ∈ [0, M)^d, with the
// spectral origin (DC) at M/2 per dimension. No normalization is applied:
// adjoint(forward(x)) ≈ M^d·x apodization-corrected — iterative solvers are
// insensitive to the constant and direct users can divide by M^d.
//
// Concurrency contract (the workspace-lease model): a plan is built once per
// trajectory (preprocessing: partitioning, task graph, sample reorder) and is
// immutable afterwards — tables, task graph and the FFT are only read by
// applies. All mutable per-apply state (the oversampled grids, private
// reduction buffers, stats, trace) lives in a `Workspace`. The const
// `forward`/`adjoint` overloads take an explicit workspace and thread pool
// and may run concurrently on the same plan as long as each call holds its
// own workspace and pool — `exec::NufftEngine` leases workspaces per job on
// exactly this contract. The legacy non-const overloads use a workspace and
// pool owned by the plan and therefore remain single-caller-at-a-time; they
// exist for convenience and for the component benchmarks.
//
// One apply pipeline: every apply is a batch of nb ≥ 1 slices, run in
// chunks of at most ws.capacity slices, each chunk as scale → FFT →
// convolution (forward) or convolution → IFFT → scale (adjoint) over all of
// its slices at once. A single transform is the nb = 1 case, and
// `exec::BatchNufft` is a (plan, Workspace) adapter over the same driver.
// The FFT is the plan's pruned BatchFft (core/batch_fft.hpp). A workspace
// stores its capacity grids as consecutive slabs (batch-major: slab b at
// offset b·grid_elems()) so each slice keeps the single-transform memory
// layout; see DESIGN.md §7.
#pragma once

#include <memory>
#include <vector>

#include "common/types.hpp"
#include "core/batch_fft.hpp"
#include "core/conv_dispatch.hpp"
#include "core/convolution.hpp"
#include "core/grid.hpp"
#include "core/preprocess.hpp"
#include "core/stats.hpp"
#include "datasets/trajectory.hpp"
#include "kernels/horner.hpp"
#include "kernels/lut.hpp"
#include "parallel/thread_pool.hpp"

namespace nufft {

/// Mutable per-apply state, rentable so concurrent applies on one plan never
/// share buffers. Obtain via Nufft::make_workspace(capacity); the struct is
/// movable and plan-specific (buffer shapes follow the plan's grid and task
/// list). An apply of nb slices runs in chunks of `capacity` slices.
struct Workspace {
  index_t capacity = 1;              // slices per chunk, in [1, kMaxBatch]
  cvecf grid;                        // capacity oversampled grids, back to back
  std::vector<cvecf> private_bufs;   // per privatized task: capacity boxes (empty else)
  // Set when the private buffers could not be allocated: adjoints then run
  // every task through the TDG-serialized direct-scatter path.
  bool privatization_downgraded = false;
  OperatorStats fwd_stats;
  OperatorStats adj_stats;
  std::vector<TraceEvent> trace;
};

class Nufft {
 public:
  /// Plan a transform between an N^dim image and `samples.count()`
  /// non-uniform spectral values. The grid geometry must match the sample
  /// set's oversampled extent.
  Nufft(const GridDesc& g, const datasets::SampleSet& samples, const PlanConfig& cfg);

  /// Plan from a previously serialized preprocessing result (plan_cache.hpp)
  /// — skips the histogram/partition/bin/reorder pass entirely.
  Nufft(const GridDesc& g, const datasets::SampleSet& samples, const PlanConfig& cfg,
        Preprocessed restored);

  /// Warm derivation: plan `new_samples` by delta-updating a clone of `src`'s
  /// preprocessing (update_preprocessed) instead of a cold preprocess().
  /// Grid, config, FFT plans, scale tables and kernel evaluators are shared
  /// with the source plan (all immutable); `src` keeps serving concurrent
  /// applies untouched. The derived plan is bit-identical to a cold
  /// Nufft(grid, new_samples, config) in everything an apply reads —
  /// plan_stats().warm_updated records which path built it, and generation
  /// is src's + 1 (unless the update was a bitwise no-op).
  Nufft(const Nufft& src, const datasets::SampleSet& new_samples,
        const UpdateOptions& opts = {});
  ~Nufft();

  Nufft(const Nufft&) = delete;
  Nufft& operator=(const Nufft&) = delete;

  const GridDesc& grid_desc() const { return g_; }
  const PlanConfig& config() const { return cfg_; }
  index_t image_elems() const { return g_.image_elems(); }
  index_t sample_count() const { return nsamples_; }

  // --- re-entrant apply API (the workspace-lease model) ---

  /// A fresh workspace for chunks of up to `capacity` slices (clamped to
  /// [1, kMaxBatch]). If its private reduction buffers cannot be allocated
  /// the workspace is downgraded to direct scatter instead of failing.
  Workspace make_workspace(index_t capacity = 1) const;

  /// Bytes a capacity-1 workspace for this plan occupies (grid + private
  /// buffers).
  std::size_t workspace_bytes() const;

  /// Throws kInvalidInput unless `ws` can hold a chunk of this plan:
  /// 1 ≤ capacity ≤ kMaxBatch and capacity grids of grid_elems() cells.
  /// Every apply through a caller's workspace runs it first.
  void check_workspace(const Workspace& ws) const;

  /// The apply driver: nb slices, images[b] (N^dim, centered, row-major) →
  /// raws[b] (sample values, caller order), in chunks of ws.capacity.
  /// Thread-safe on a const plan: concurrent calls must pass distinct
  /// workspaces and distinct pools.
  void forward(const cfloat* const* images, cfloat* const* raws, index_t nb, Workspace& ws,
               ThreadPool& pool) const;

  /// raws[b] → images[b], b < nb. Same contract.
  void adjoint(const cfloat* const* raws, cfloat* const* images, index_t nb, Workspace& ws,
               ThreadPool& pool) const;

  /// One slice: the driver at nb = 1.
  void forward(const cfloat* image, cfloat* raw, Workspace& ws, ThreadPool& pool) const;
  void adjoint(const cfloat* raw, cfloat* image, Workspace& ws, ThreadPool& pool) const;

  // --- convenience apply API (uses the plan-owned workspace and pool) ---

  /// image (N^dim, centered, row-major) → raw (sample values, caller order).
  void forward(const cfloat* image, cfloat* raw);

  /// raw (sample values, caller order) → image (N^dim).
  void adjoint(const cfloat* raw, cfloat* image);

  // --- streaming trajectory update (exclusive-owner API) ---

  /// Re-plan this operator for `new_samples` in place, preferring the delta
  /// path (update_preprocessed) over a cold rebuild. NOT part of the
  /// concurrency contract above: the caller must guarantee no apply is in
  /// flight on this plan — shared plans (PlanRegistry) use the warm-derive
  /// constructor instead, which never mutates the source. On kNoop nothing
  /// changes (generation included); otherwise plan_stats().generation is
  /// bumped. Workspaces made earlier stay valid: every adjoint fits their
  /// private buffers to the plan's current privatization marks.
  UpdatePath update_samples(const datasets::SampleSet& new_samples,
                            const UpdateOptions& opts = {});

  // --- component entry points for benchmarking and tests ---
  // These operate on the plan-owned workspace (not re-entrant).

  /// Adjoint convolution only: spread raw samples onto the internal grid
  /// (grid is cleared first).
  void spread(const cfloat* raw);

  /// Forward convolution only: gather raw samples from the internal grid.
  void interp(cfloat* raw);

  /// The internal oversampled grid (grid_desc().grid_elems() values).
  cfloat* grid_data() { return ws_.grid.data(); }
  const cfloat* grid_data() const { return ws_.grid.data(); }
  void clear_grid();

  /// Fill the grid from an image (scale + chop + zero-pad), no FFT.
  void image_to_grid(const cfloat* image);
  /// Read an image back from the grid (crop + scale + chop), no FFT.
  void grid_to_image(cfloat* image) const;

  // --- instrumentation ---
  const OperatorStats& last_forward_stats() const { return ws_.fwd_stats; }
  const OperatorStats& last_adjoint_stats() const { return ws_.adj_stats; }
  const Preprocessed& plan() const { return pp_; }
  const std::vector<TraceEvent>& last_trace() const { return ws_.trace; }
  /// The plan-owned pool behind the convenience API (single caller at a time).
  ThreadPool& pool() const { return *pool_; }

  /// Vector path resolved from PlanConfig::use_simd / isa and the CPU.
  using ConvMode = ConvBackend;
  ConvMode conv_mode() const { return conv_mode_; }

  /// The convolution variant this plan bound (never null): the constexpr-W
  /// variant of its key, or the runtime-W one for an uncovered width.
  const ConvVariant& conv_variant() const { return *conv_variant_; }

  /// View of one task's sample range as the dispatch variants consume it
  /// (core/conv_dispatch.hpp), for driving a variant directly in benches and
  /// tests. box_local → indices rebased into the task's private box.
  ConvRange conv_range(const ConvTask& task, bool box_local) const;

  /// Plan-time decisions (convolution variant binding, generation).
  const PlanStats& plan_stats() const { return plan_stats_; }

  /// The plan's FFT over nb grid slabs (slab b at slabs + b·grid_elems()):
  /// the pruned BatchFft with the plan's batched-stages choice, as every
  /// apply runs it. The forward is exact for slabs that are zero off the
  /// corner rows; the inverse is valid on the corner cells only.
  void grid_fft(cfloat* slabs, index_t nb, fft::Direction dir, ThreadPool& pool) const {
    fft_->transform(slabs, nb, dir, pool, conv_mode_ != ConvMode::kScalar);
  }

 private:
  /// The weight evaluator this plan resolved (LUT or Horner) as the view
  /// Part 1 consumes (the sample loop's window block and compute_window).
  WindowEval window_eval() const {
    WindowEval ev;
    if (horner_ != nullptr) {
      ev.horner = horner_.get();
    } else {
      ev.lut = lut_.get();
    }
    return ev;
  }

  // One chunk (nb ≤ ws.capacity slices) of the driver.
  void forward_chunk(const cfloat* const* images, cfloat* const* raws, index_t nb, Workspace& ws,
                     ThreadPool& pool) const;
  void adjoint_chunk(const cfloat* const* raws, cfloat* const* images, index_t nb, Workspace& ws,
                     ThreadPool& pool) const;

  /// Size ws.private_bufs to the current privatization marks (an in-place
  /// update_samples may have moved them); downgrades on allocation failure.
  void fit_private_bufs(Workspace& ws) const;

  static void clear_grid(cfloat* grid, std::size_t n, ThreadPool& pool);
  /// The fused scale pass: every cell of `grid` written once (zero padding
  /// or scaled image value).
  void image_to_grid(const cfloat* image, cfloat* grid, ThreadPool& pool) const;
  void grid_to_image(const cfloat* grid, cfloat* image, ThreadPool& pool) const;

  // The convolution over nb slices whose grids sit grid_elems() apart in
  // `grid` — the one sample loop of every apply.
  void run_interp(const cfloat* grid, cfloat* const* outs, index_t nb, ThreadPool& pool) const;
  /// Spreads into ws.grid; privatized tasks convolve into ws.private_bufs
  /// (nb boxes back to back). Returns the scheduler trace.
  std::vector<TraceEvent> run_spread(const cfloat* const* raws, index_t nb, Workspace& ws,
                                     ThreadPool& pool, OperatorStats* stats) const;

  GridDesc g_;
  PlanConfig cfg_;
  index_t nsamples_ = 0;
  std::unique_ptr<ThreadPool> pool_;
  Preprocessed pp_;
  // shared_ptr (not unique): a warm-derived plan shares these immutable
  // tables with its source — they depend only on (grid, cfg), which the
  // derivation preserves.
  std::shared_ptr<const BatchFft> fft_;  // the pruned FFT, both directions
  std::array<fvec, 3> scale_;          // rolloff × chop, one array per dim
  std::array<std::vector<index_t>, 3> wrap_;  // image index → grid index per dim
  std::array<std::vector<index_t>, 3> inv_wrap_;  // grid index → image index, −1 = pad
  /// Maximal contiguous stretches of inv_wrap_: grid [g_begin, g_end) maps to
  /// image i_begin + (g − g_begin). Lets the fused scale pass stream each
  /// stretch without per-element lookups; gaps between runs are zero padding.
  struct WrapRun {
    index_t g_begin = 0;
    index_t g_end = 0;
    index_t i_begin = 0;
  };
  std::array<std::vector<WrapRun>, 3> wrap_runs_;
  std::shared_ptr<kernels::KernelLut> lut_;
  std::shared_ptr<kernels::KernelHorner> horner_;  // set iff cfg_.eval == kHorner
  ConvMode conv_mode_ = ConvMode::kSse;
  const ConvVariant* conv_variant_ = nullptr;  // bound dispatch variant
  PlanStats plan_stats_;
  Workspace ws_;  // the plan-owned workspace behind the convenience API
};

}  // namespace nufft
