// FINUFFT-style piecewise-polynomial kernel evaluation.
//
// A sample at fractional position k touches the oversampled-grid neighbours
// x1..x1+len−1 with x1 = ceil(k − W), so neighbour i sits at distance
// d_i = (x1 + i) − k = z − W + i where z = x1 − k + W ∈ [0, 1) is shared by
// the whole window. Fitting one polynomial P_i(z) ≈ φ(z − W + i) per
// neighbour offset turns the window evaluation into nseg Horner recurrences
// at a single abscissa — with the coefficients stored transposed
// (coef[degree][segment]) the inner loop over segments is a contiguous
// float stream the compiler auto-vectorizes.
//
// Coefficients come from Chebyshev interpolation of φ on each unit segment
// (degree-d nodes, exact DCT of the samples, then a change of basis to
// monomials in t = 2z − 1), fitted in double and stored in float.
//
// Two evaluators run the same recurrence, acc = c₀, then acc·t + c_k per
// degree step — a multiply, then an add, the per-lane arithmetic of the
// plain scalar recurrence — so every weight keeps its bits on every path:
//   * KernelHorner::eval_window, the per-sample row of compute_window, holds
//     the row of one sample's segments in SSE registers (lanes = segments);
//   * the sample loop's detail::window_block (core/window_span.hpp) runs one
//     register chain per segment over four samples (lanes = samples),
//     broadcasting each coefficient from the same transposed table.
// No FMA: both are compiled only in baseline-ISA translation units, where
// the compiler cannot fuse the pair.
#pragma once

#include <vector>

#include "common/error.hpp"
#include "kernels/kernel.hpp"

namespace nufft::kernels {

class KernelHorner {
 public:
  /// Upper bound on the padded segment stride (W ≤ 9.5 → nseg ≤ 21 → stride
  /// ≤ 24).
  static constexpr int kMaxStride = 32;

  /// Fit piecewise polynomials for `kernel`. Requires 2·radius to be an
  /// integer so segment boundaries align with the support edge (every width
  /// the planner or fuzzer selects is a multiple of 0.5). `degree` 0 picks
  /// a width-scaled default that holds the fit error below the kernel's own
  /// aliasing floor.
  explicit KernelHorner(const Kernel1d& kernel, int degree = 0);

  float radius() const { return radius_; }
  int degree() const { return degree_; }
  int segments() const { return nseg_; }

  /// segments() and stride() of a kernel with 2·radius = w2: 2⌈W⌉ + 1
  /// segments, padded to a multiple of 8.
  static constexpr int segments_for(int w2) { return 2 * ((w2 + 1) / 2) + 1; }
  static constexpr int stride_for(int w2) { return (segments_for(w2) + 7) & ~7; }

  /// Transposed coefficient table: coefficients()[k*stride() + i] is the
  /// t^(degree−k) coefficient of segment i. stride() is a multiple of 8 and
  /// the padded tail of every row is zero-filled, so eval_window reads whole
  /// rows in 4-float vectors and window_block whole groups of four segments.
  const float* coefficients() const { return coef_.data(); }
  int stride() const { return stride_; }

  /// Window batch evaluation: weights for neighbours x1..x1+len−1 of a
  /// sample with shared abscissa z = x1 − k + W ∈ [0, 1]. 0 ≤ len ≤
  /// segments(). The per-sample row of compute_window: one switch on
  /// stride() to a row held in stride() / 4 SSE registers.
  void eval_window(float z, int len, float* out) const;

  /// Scalar reference path (tests, spot checks): kernel value at signed
  /// distance d, |d| ≤ radius.
  float operator()(float d) const;

 private:
  std::vector<float> coef_;  // coef_[k*stride_ + i]: t^(degree_-k) coefficient of segment i
  float radius_ = 0.0f;
  int nseg_ = 0;
  int degree_ = 0;
  int stride_ = 0;
};

}  // namespace nufft::kernels
