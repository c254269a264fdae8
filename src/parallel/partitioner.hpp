// Geometric data partitioning of the oversampled Cartesian grid
// (paper §III-B1, Fig. 4/5).
//
// The grid is cut into a d-dimensional lattice of axis-aligned boxes; each
// box becomes one task that owns the samples falling inside it. Two layouts
// are supported:
//
//  * variable width (the paper's scheme): per-dimension cumulative sample
//    histograms drive partition boundaries so every partition holds roughly
//    the per-partition average sample count, never narrower than 2W+1;
//  * fixed width (the baseline of Fig. 11): equal-width cuts.
//
// Both layouts force the partition count per dimension to be even (or
// exactly 1). The paper's Gray-code scheduling relies on same-turn tasks
// never conflicting; with the spectrum being periodic, an odd partition
// count would make the first and last partition of a dimension adjacent
// *and* same-parity across the wrap seam, breaking that invariant.
#pragma once

#include <array>
#include <vector>

#include "common/types.hpp"

namespace nufft {

class ThreadPool;

struct PartitionLayout {
  int dim = 0;
  /// bounds[d] has num_parts[d] + 1 entries; partition p spans
  /// [bounds[d][p], bounds[d][p+1]).
  std::array<std::vector<index_t>, 3> bounds;
  std::array<int, 3> num_parts{1, 1, 1};

  int total_parts() const {
    int t = 1;
    for (int d = 0; d < dim; ++d) t *= num_parts[d];
    return t;
  }
  /// Partition index along dimension d containing coordinate x. The
  /// definition of a sample's partition: the preprocessing pipeline reads it
  /// from per-cell tables built from the bounds (core/preprocess_detail.hpp)
  /// and tested against this.
  int locate(int d, float x) const;
  /// Flatten per-dimension partition coordinates (row-major, dim 0 slowest).
  int flatten(const std::array<int, 3>& pc) const;
};

/// Per-dimension cumulative histogram: hist(i) = number of samples with
/// coordinate < i. Bin granularity is one grid cell. When a pool is supplied
/// the count runs as per-chunk partial histograms merged by a prefix scan;
/// the result is bit-identical to the serial count at any pool width
/// (integer sums in a fixed merge order).
std::vector<index_t> cumulative_histogram(const float* coords, index_t count, index_t extent,
                                          ThreadPool* pool = nullptr);

/// Variable-width layout (Fig. 5). `target_parts` is the desired partition
/// count P per dimension; `min_width` must be >= 2W+1.
/// `extent[d]` is the grid size M along dimension d. The optional pool
/// parallelizes the per-dimension histograms (boundary placement itself is a
/// cheap serial walk of the cumulative counts).
PartitionLayout make_variable_layout(int dim, const std::array<index_t, 3>& extent,
                                     const std::array<const float*, 3>& coords, index_t count,
                                     int target_parts, index_t min_width,
                                     ThreadPool* pool = nullptr);

/// Variable-width boundary placement from precomputed cumulative histograms
/// (hists[d] must equal cumulative_histogram(coords[d], count, extent[d])).
/// make_variable_layout delegates here; the delta-update path
/// (core/preprocess update_preprocessed) re-runs the identical walk on
/// incrementally patched counts to decide whether a trajectory change moved
/// any partition boundary — the two entry points must stay one algorithm.
PartitionLayout make_variable_layout_from_hists(int dim, const std::array<index_t, 3>& extent,
                                                const std::array<std::vector<index_t>, 3>& hists,
                                                index_t count, int target_parts,
                                                index_t min_width);

/// Fixed-width layout: equal cuts of width max(min_width, extent/target).
PartitionLayout make_fixed_layout(int dim, const std::array<index_t, 3>& extent,
                                  int target_parts, index_t min_width);

}  // namespace nufft
