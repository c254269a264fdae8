// Kernel lookup table (paper §III-A, Fig. 2 Part 1).
//
// Part 1 of the convolution evaluates the 1D kernel at up to 2W+1 distances
// per sample per dimension; evaluating Bessel functions there would dwarf
// the interpolation itself. The LUT samples the kernel densely on [0, W]
// and reconstructs values with linear interpolation (error O(h²·max|g''|),
// bounded by tests).
//
// Guard-entry contract (authoritative — ROADMAP and DESIGN.md agree; any
// statement elsewhere that the guards are zeroed is stale): the table holds
// ceil(W·spu) + 3 entries, and every entry at or past the support edge
// stores the ONE-SIDED edge value φ(W) = lim_{d→W⁻} φ(d), NOT zero. Zeroed
// guards would make the interpolated value collapse toward 0 across the
// final partial cell [last interior sample, W] — exactly where a
// boundary-straddling window evaluates — biasing edge weights low by up to
// the whole edge value. With φ(W) guards, operator() at d == W (and at
// d == W ± 1 ulp, which the float-rounding trim in compute_window can
// legitimately produce) is a defined read returning ≈ φ(W). Pinned by
// tests/test_kernels.cpp (Lut.GuardContractAtEdgeOneUlp).
#pragma once

#include <cstddef>

#include "common/types.hpp"
#include "kernels/kernel.hpp"

namespace nufft::kernels {

class KernelLut {
 public:
  /// Sample `kernel` at `samples_per_unit` points per grid unit.
  KernelLut(const Kernel1d& kernel, int samples_per_unit = 1024);

  /// Kernel support radius W.
  float radius() const { return radius_; }

  /// Kernel value at distance d, |d| <= W required (not range-checked in
  /// release builds; the window computation guarantees it).
  float operator()(float d) const {
    const float a = d < 0 ? -d : d;
    const float x = a * scale_;
    const auto i = static_cast<std::size_t>(x);
    const float frac = x - static_cast<float>(i);
    return table_[i] + (table_[i + 1] - table_[i]) * frac;
  }

  int samples_per_unit() const { return spu_; }
  std::size_t table_size() const { return table_.size(); }
  /// The table operator() reads (entry i at distance i / scale()), for the
  /// sample loop's across-sample lookup (detail::window_block).
  const float* table() const { return table_.data(); }
  float scale() const { return scale_; }

 private:
  fvec table_;
  float radius_;
  float scale_;  // samples per unit distance
  int spu_;
};

}  // namespace nufft::kernels
