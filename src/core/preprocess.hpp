// One-time preprocessing of a sample set for repeated NUFFT application
// (paper §III-B1, §III-D, §V-E).
//
// Produces: the partition layout, the Gray-code task graph, per-task sample
// ranges (with samples physically reordered for cache reuse), and the
// selective-privatization marking with each privatized task's private
// write-region box. An iterative solver amortizes this cost over its many
// forward/adjoint calls, exactly as FFTW amortizes planning.
//
// The whole pipeline runs on the caller's ThreadPool (DESIGN.md §11):
// per-chunk partial histograms with prefix-scan merges, a two-pass parallel
// stable counting sort for task binning, a per-task LSD radix sort for the
// tile reorder (tasks dispatched largest-first), and parallel gather of the
// reordered coordinate arrays. A sample's task and reorder key are read from
// small per-cell tables built per call (core/preprocess_detail.hpp), not
// computed by a bounds search and integer div/mods per sample.
//
// update_preprocessed() patches a plan for a perturbed trajectory with the
// same passes restricted to the moved samples (DESIGN.md §15): a parallel
// diff that also looks up each moved sample's new task, a cursor-matrix
// scatter of the arrivals, and a per-task sort-and-merge that recomputes the
// retained samples' keys from their unchanged coordinates.
//
// Determinism contract: the output depends only on (grid, samples, cfg) —
// never on the pool width or its scheduling. Every field of `Preprocessed`
// is bit-identical whether the pipeline runs on 1 thread or 64, so
// plan-cache keys, serialized plans and the fuzz oracles stay valid across
// machines with different core counts.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/grid.hpp"
#include "core/stats.hpp"
#include "datasets/trajectory.hpp"
#include "kernels/kernel.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/task_graph.hpp"

namespace nufft {

/// Vector instruction set for the convolution Part 2.
///   kAuto — AVX2 when the CPU supports it, else SSE (when use_simd is set)
///   kSse  — the paper's 128-bit path
///   kAvx2 — the 256-bit FMA extension (paper §I "wider SIMD")
enum class SimdIsa { kAuto, kSse, kAvx2 };

/// Tuning and ablation switches for plan construction. The defaults are the
/// paper's "most optimized" configuration; each flag disables one
/// optimization to reproduce the incremental studies (Figs. 9, 11, 12, 13).
struct PlanConfig {
  double kernel_radius = 4.0;  // W, in oversampled-grid units
  kernels::KernelType kernel = kernels::KernelType::kKaiserBessel;
  int lut_samples_per_unit = 1024;
  int threads = 1;

  /// Requested relative L2 accuracy vs exact NUDFT; 0 (default) keeps the
  /// manual parameters above. When > 0, plan construction resolves
  /// kernel_radius / lut_samples_per_unit / eval from the calibration table
  /// for the selected kernel family (core/tolerance.hpp) and throws
  /// Error(kUnachievableAccuracy) when no calibrated row meets the request.
  double tolerance = 0.0;
  /// Weight evaluation: the paper's interpolated LUT, or FINUFFT-style
  /// piecewise Horner polynomials (required to hit the tightest tolerances
  /// with the ES kernel).
  kernels::KernelEval eval = kernels::KernelEval::kLut;

  // use_simd and isa pick the Part-2 kernels only: every backend runs the one
  // SSE Part 1 (detail::window_block, core/window_span.hpp).
  bool use_simd = true;                  // Fig. 13 ablation (false = scalar Part 2)
  SimdIsa isa = SimdIsa::kSse;           // which vector ISA when use_simd
  bool reorder = true;                   // Fig. 9 "Reorder"
  bool color_barrier_schedule = false;   // ablation: 2^d-color barrier scheduling
  bool variable_partitions = true;       // Fig. 11 ablation
  bool priority_queue = true;            // Fig. 12 group C
  bool selective_privatization = true;   // Fig. 12 group B
  int partitions_per_dim = 0;            // 0 = auto from thread count
  double privatization_factor = 1.0;     // scales the Eq. 6 threshold
  index_t reorder_tile = 8;              // tile edge for the cache reorder
  bool record_trace = false;             // scheduler instrumentation
};

/// One task = one grid partition plus the samples that fall inside it.
struct ConvTask {
  index_t begin = 0;  // sample range in the *reordered* arrays
  index_t end = 0;
  std::array<index_t, 3> box_lo{0, 0, 0};  // write region, unwrapped:
  std::array<index_t, 3> box_hi{0, 0, 0};  // [lo, hi) = partition ± ceil(W)
  index_t count() const { return end - begin; }
  index_t box_elems(int dim) const {
    index_t t = 1;
    for (int d = 0; d < dim; ++d) t *= box_hi[static_cast<std::size_t>(d)] - box_lo[static_cast<std::size_t>(d)];
    return t;
  }
  /// Row-major strides of the private box [box_lo, box_hi).
  std::array<index_t, 3> box_strides(int dim) const {
    std::array<index_t, 3> s{1, 1, 1};
    for (int d = dim - 2; d >= 0; --d) {
      const auto u = static_cast<std::size_t>(d);
      s[u] = s[u + 1] * (box_hi[u + 1] - box_lo[u + 1]);
    }
    return s;
  }
};

/// Per-plan bookkeeping retained by preprocess() so a later
/// update_preprocessed() can diff a perturbed trajectory against the plan
/// and patch it in place instead of rebuilding. Never serialized (plan-cache
/// blobs stay format-stable); a restored plan rebuilds it lazily on its
/// first update from tasks/orig_index/coords alone. An update commits
/// task_of, cell_counts and prev_coords together, after its last allocation,
/// so a throwing update leaves them describing the plan it did not change.
///
/// No reorder keys are stored: a retained sample's coordinates are bitwise
/// unchanged, so an update recomputes its key from them through the per-cell
/// key tables, which costs less than streaming 8 bytes per sample.
struct PlanDeltaState {
  /// Original sample index → owning task, the cold bin pass's assignment.
  std::vector<std::int32_t> task_of;
  /// Per-dimension per-grid-cell sample counts (variable layouts only). An
  /// update patches a copy ±1 per moved sample and re-runs the
  /// boundary-placement walk on it without touching the unmoved samples.
  std::array<std::vector<index_t>, 3> cell_counts;
  /// The plan's current coordinates in the caller's original sample order.
  /// Lets the update diff two contiguous arrays sequentially instead of
  /// chasing orig_index indirections through the reordered copy — the diff
  /// pass is the one part of an update that always touches every sample.
  std::array<fvec, 3> prev_coords;
  /// Double buffers for the swap-based update: after the first update the
  /// steady state reallocates neither the reordered coordinates nor
  /// orig_index.
  std::array<fvec, 3> coords_scratch;
  std::vector<index_t> orig_scratch;
};

struct Preprocessed {
  PartitionLayout layout;
  std::unique_ptr<TaskGraph> graph;
  std::vector<ConvTask> tasks;
  std::vector<index_t> weights;   // per-task sample counts (scheduler priority)
  std::vector<char> privatized;   // per-task selective-privatization mark
  index_t privatization_threshold = 0;

  // Samples reordered task-by-task (and tile-ordered within a task when
  // cfg.reorder). orig_index maps a reordered position to the caller's
  // original sample index.
  std::array<fvec, 3> coords;
  std::vector<index_t> orig_index;

  // Delta-update bookkeeping; null on plans restored from a serialized blob
  // until their first update_preprocessed call rebuilds it.
  std::unique_ptr<PlanDeltaState> delta;

  PreprocessStats stats;
};

/// Run the full preprocessing pass on `pool`. The pool only supplies
/// parallelism; the result is bit-identical at any pool width (see the
/// determinism contract above). cfg.threads still parameterizes the *plan*
/// (privatization threshold, partition count), as before.
Preprocessed preprocess(const GridDesc& g, const datasets::SampleSet& samples,
                        const PlanConfig& cfg, ThreadPool& pool);

/// Convenience overload: runs on a transient pool of cfg.threads contexts.
Preprocessed preprocess(const GridDesc& g, const datasets::SampleSet& samples,
                        const PlanConfig& cfg);

/// The Eq. 6 privatization threshold: M_samples / (P · 2^{d+1}).
index_t privatization_threshold(index_t total_samples, int threads, int dim, double factor);

/// How update_preprocessed satisfied a trajectory update.
enum class UpdatePath {
  kNoop,     // every coordinate bitwise-identical — nothing touched
  kWarm,     // delta path: only dirty tasks re-binned/re-sorted/re-gathered
  kRebuild,  // fallback: full cold preprocess() (delta exceeded the
             // threshold, the partition layout moved, or the sample count
             // changed)
};

/// Tuning for the delta path. Deliberately NOT part of PlanConfig: the
/// threshold only picks between two bit-identical execution strategies, so
/// it must not contaminate plan identity (registry keys, cache blobs).
struct UpdateOptions {
  /// Moved-sample fraction above which a delta update is assumed to cost
  /// more than the cold rebuild it replaces (the dirty-task rebuild work
  /// grows superlinearly with spread-out movement).
  double rebuild_fraction = 0.3;
};

/// Diff `new_samples` against the plan in `pp` (which must describe the same
/// grid and cfg) and patch it in place. "Moved" is bitwise coordinate
/// inequality — a −0.0 → +0.0 flip counts as moved, so the patched arrays
/// match a cold gather bit for bit. On kWarm only tasks that lost, gained or
/// internally moved samples are re-sorted and re-gathered; everything else
/// is block-copied at its (possibly shifted) new offset. Falls back to a
/// full preprocess() — still assigned into `pp` — when the moved fraction
/// exceeds opts.rebuild_fraction, when a partition boundary would move, or
/// when the sample count changed.
///
/// Postcondition (the determinism contract extended): whatever the path,
/// `pp` is bit-identical to preprocess(g, new_samples, cfg, any pool) in
/// every field except `stats`/`delta`, at any pool width; the delta state's
/// task_of, cell_counts and prev_coords equal the cold build's. If the call
/// throws (an allocation failure), `pp` is left as it was, those three
/// included.
UpdatePath update_preprocessed(Preprocessed& pp, const GridDesc& g,
                               const datasets::SampleSet& new_samples, const PlanConfig& cfg,
                               ThreadPool& pool, const UpdateOptions& opts = {});

/// Deep copy: the task graph is reconstructed from the layout (it is a pure
/// function of it) and the delta scratch buffers start empty. The source's
/// reorder/gather arrays, marks and delta bookkeeping are copied verbatim —
/// the clone is a valid warm-update base for a derived plan while the
/// source keeps serving concurrent applies.
Preprocessed clone_preprocessed(const Preprocessed& src);

}  // namespace nufft
