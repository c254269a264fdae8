// Iterative multichannel non-Cartesian MRI reconstruction — the paper's
// headline application (§I: "iterative multichannel reconstruction of a
// 240×240×240 image could execute in just over 3 minutes").
//
// Model: per coil c, data_c = NUFFT_forward(S_c ⊙ x). The reconstruction
// solves the regularized least-squares problem with CG on the normal
// equations. All coils share one NUFFT plan and one workspace of
// min(coils, kMaxBatch) grid slabs, and every per-coil loop is one apply
// with the coil count as the batch. The data side — simulate() and the
// right-hand side Σ_c S_cᴴ Aᴴ data_c, once per solve — runs the plan's
// batched forward/adjoint. Every CG iteration applies AᴴA through the
// Toeplitz kernel embedded in the plan's grid (core/toeplitz.hpp): the
// plan's two pruned FFT passes and one pointwise multiply per coil, no
// gridding. The kernel is built at construction and rebuilt by the next
// solve after an in-place update_samples.
#pragma once

#include <vector>

#include "core/nufft.hpp"
#include "core/toeplitz.hpp"
#include "mri/cg.hpp"

namespace nufft::mri {

struct ReconOptions {
  int coils = 4;
  CgOptions cg;
};

struct ReconResult {
  cvecf image;
  CgResult cg;
  double seconds = 0.0;         // wall-clock of the solve (excl. planning)
  double normal_applies = 0.0;  // coil AᴴA applications (coils × iterations)
};

class MultichannelRecon {
 public:
  /// Shares one NUFFT plan across all coils and builds its Toeplitz kernel.
  /// The plan needs m_d ≥ 2·n_d − 1 per dimension (α = 2); it must outlive
  /// this object.
  MultichannelRecon(Nufft& plan, std::vector<cvecf> coil_maps);

  /// Simulate coil data from a ground-truth image (forward model).
  std::vector<cvecf> simulate(const cfloat* truth);

  /// Reconstruct from per-coil sample data.
  ReconResult reconstruct(const std::vector<cvecf>& data, const CgOptions& opt);

  /// The CG normal operator: out = Σ_c S_cᴴ AᴴA (S_c ⊙ in).
  void normal_op(const cfloat* in, cfloat* out);

  int coils() const { return static_cast<int>(maps_.size()); }

 private:
  /// Rebuild the kernel if the plan's trajectory moved since it was built.
  void refresh_kernel();

  Nufft& plan_;
  std::vector<cvecf> maps_;
  Workspace ws_;
  ToeplitzNormal normal_;
  cvecf coil_images_;               // coils · image_elems(), coil-major
  std::vector<cfloat*> coil_ptrs_;  // coil_images_ slice c
  double normal_applies_ = 0.0;
};

}  // namespace nufft::mri
