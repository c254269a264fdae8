// Conjugate-gradient solver for the normal equations AᴴA x = Aᴴ b
// (Hermitian positive semi-definite operator), the standard engine of
// iterative non-Cartesian MRI reconstruction. Each iteration applies AᴴA
// once; in mri::MultichannelRecon that is one coil-batched Toeplitz apply
// (core/toeplitz.hpp) — the plan's pruned FFT pair with the gridding
// replaced by a pointwise multiply. A step whose ⟨p, AᴴA p⟩ is not finite
// and positive ends the solve, so non-finite data yields the last finite
// iterate (x = 0 when it appears from the start), never a NaN image.
#pragma once

#include <functional>
#include <vector>

#include "common/types.hpp"

namespace nufft::mri {

struct CgOptions {
  int max_iters = 10;
  double tolerance = 1e-6;  // stop when ‖r‖/‖r0‖ falls below this
  double lambda = 0.0;      // Tikhonov term: solve (AᴴA + λI)x = rhs
};

struct CgResult {
  int iterations = 0;
  std::vector<double> residual_norms;  // ‖r_k‖ after each iteration
};

/// Solve (AᴴA + λI)x = rhs with x starting at zero.
/// `normal_op(in, out)` must compute out = AᴴA·in (n values each).
CgResult conjugate_gradient(const std::function<void(const cfloat*, cfloat*)>& normal_op,
                            const cfloat* rhs, cfloat* x, index_t n, const CgOptions& opt);

}  // namespace nufft::mri
