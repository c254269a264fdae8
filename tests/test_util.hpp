// Shared helpers for the test suite.
#pragma once

#include <complex>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
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

}  // namespace nufft::testing
