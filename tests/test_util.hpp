// Shared helpers for the test suite.
#pragma once

#include <array>
#include <complex>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/convolution.hpp"
#include "core/grid.hpp"
#include "datasets/trajectory.hpp"

namespace nufft::testing {

/// Uniform random complex image in [-1,1]².
cvecf random_image(index_t n, std::uint64_t seed);

/// Uniform random complex sample values.
cvecf random_raw(index_t n, std::uint64_t seed);

/// Relative L2 error ‖a − b‖/‖b‖ for float-vs-double comparisons.
double rel_err(const cfloat* a, const cdouble* b, index_t n);
double rel_err(const cfloat* a, const cfloat* b, index_t n);

/// Maximum absolute element difference.
double max_abs_diff(const cfloat* a, const cfloat* b, index_t n);

/// Small trajectory for correctness tests: ~count samples of the given type.
datasets::SampleSet small_trajectory(datasets::TrajectoryType type, int dim, index_t n,
                                     index_t approx_count, std::uint64_t seed = 99);

/// A copy of `set` with every `stride`-th sample moved by `step` grid units
/// in each dimension (wrapped into [0, m)): an in-place update_samples input.
datasets::SampleSet moved_samples(const datasets::SampleSet& set, index_t stride, float step);

/// One backend's Part-2 kernel, run as a single apply runs it (the SIMD
/// kernels at slice-group width 1) on one grid of dimension `dim`. kAvx2
/// requires avx2_available().
enum class Part2 { kScalar, kSse, kAvx2 };
void scatter1(Part2 kind, int dim, cfloat* grid, const std::array<index_t, 3>& strides,
              const WindowBuf& wb, cfloat val);
cfloat gather1(Part2 kind, int dim, const cfloat* grid, const std::array<index_t, 3>& strides,
               const WindowBuf& wb);

/// Asserts, bitwise, that a SIMD backend's Part-2 kernels (at slice-group
/// width 1) compute what a scalar model of their lane arithmetic computes:
/// `lanes` floats per vector (4 for SSE, 8 for AVX2), with multiply-add
/// fused or not. Sweeps d 1–3 × W ∈ {2, 2.5, 4, 6, 8} over random windows,
/// wrapped ones included. kAvx2 requires avx2_available().
void expect_part2_matches_lane_model(Part2 kind, int lanes, bool fused);

}  // namespace nufft::testing
