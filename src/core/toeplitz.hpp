// Toeplitz-embedded normal operator: AᴴWA applied in the plan's own
// oversampled grid with the plan's two pruned FFTs and no convolution
// (Fessler/Wajer construction).
//
// For the exact transforms, AᴴWA is convolution with the point-spread
// kernel q[δ] = Σ_w W_w·e^{2πi(w−M/2)·δ/M}, δ ∈ (−N, N)^d. Any circulant of
// period M ≥ 2N − 1 per dimension that holds q reproduces that convolution
// exactly on the image, so at α = 2 the embedding grid is the plan's grid:
//
//   AᴴWA·x = crop( IFFT_M( T̂ ⊙ FFT_M( pad(x) ) ) ),  T̂ = FFT_M(t) / M^d,
//   t[δ mod M] = q[δ] for δ ∈ (−N, N)^d, zero elsewhere,
//
// where pad/crop place the image at the plan's wrap positions. pad(x) is
// zero off the corner rows and crop reads only corner cells, so the plan's
// pruned BatchFft is exact here for the same reason as in the NUFFT. One
// application is the forward/adjoint pair's two FFT passes with both
// convolutions replaced by one pointwise multiply by the real T̂.
//
// q is computed once, with one adjoint apply of 2^d slices through the plan
// itself: slice s carries W_w·e^{+2πi(w−M/2)·s/M} with s_d = ±⌊n_d/2⌋, so its
// image index n (centered) holds q[n + s], and the 2^d shifts cover (−N, N)^d
// for even and odd N alike. The forward/adjoint pair is still what computes
// the data side of an iterative solve (the right-hand side, the simulation).
//
// The kernel depends on the trajectory: it records the plan's generation and
// apply throws kInvalidInput once an in-place update_samples has moved it.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "core/nufft.hpp"
#include "parallel/thread_pool.hpp"

namespace nufft {

class ToeplitzNormal {
 public:
  /// Build T̂ for AᴴWA on `plan`'s trajectory, computing q in `ws` (a
  /// workspace of `plan`) on `pool`. `weights` has one non-negative value per
  /// sample in caller order (nullptr = unweighted, W = I). Throws
  /// kInvalidInput unless m_d ≥ 2·n_d − 1 in every dimension. The plan must
  /// outlive this object.
  ToeplitzNormal(const Nufft& plan, Workspace& ws, ThreadPool& pool,
                 const float* weights = nullptr);

  /// out[b] = AᴴWA·in[b] for b < nb (image_elems() values each; in == out is
  /// allowed), in chunks of ws.capacity slices over ws's grid slabs.
  /// Re-entrant on the same object with distinct workspaces and pools.
  void apply(const cfloat* const* in, cfloat* const* out, index_t nb, Workspace& ws,
             ThreadPool& pool) const;

  /// One slice: apply at nb = 1.
  void apply(const cfloat* in, cfloat* out, Workspace& ws, ThreadPool& pool) const {
    apply(&in, &out, 1, ws, pool);
  }

  /// False once the plan's trajectory has moved since the kernel was built.
  bool current() const { return plan_->plan_stats().generation == generation_; }

 private:
  const Nufft* plan_;
  fvec kernel_;  // T̂ / M^d: real, one value per grid cell
  std::uint64_t generation_;
};

}  // namespace nufft
