#include "mri/recon.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/batch_conv.hpp"
#include "mri/coils.hpp"

namespace nufft::mri {

MultichannelRecon::MultichannelRecon(Nufft& plan, std::vector<cvecf> coil_maps)
    : plan_(plan),
      maps_(std::move(coil_maps)),
      ws_(plan.make_workspace(std::min<index_t>(static_cast<index_t>(maps_.size()), kMaxBatch))),
      normal_(plan, ws_, plan.pool()) {
  NUFFT_CHECK(!maps_.empty());
  const auto n = static_cast<std::size_t>(plan_.image_elems());
  for (const auto& m : maps_) NUFFT_CHECK(m.size() == n);
  coil_images_.resize(maps_.size() * n);
  for (std::size_t c = 0; c < maps_.size(); ++c) coil_ptrs_.push_back(coil_images_.data() + c * n);
}

void MultichannelRecon::refresh_kernel() {
  if (!normal_.current()) normal_ = ToeplitzNormal(plan_, ws_, plan_.pool());
}

std::vector<cvecf> MultichannelRecon::simulate(const cfloat* truth) {
  const index_t n = plan_.image_elems();
  std::vector<cvecf> data(maps_.size());
  std::vector<cfloat*> out(maps_.size());
  for (std::size_t c = 0; c < maps_.size(); ++c) {
    apply_coil(maps_[c].data(), truth, coil_ptrs_[c], n);
    data[c].resize(static_cast<std::size_t>(plan_.sample_count()));
    out[c] = data[c].data();
  }
  plan_.forward(coil_ptrs_.data(), out.data(), coils(), ws_, plan_.pool());
  return data;
}

void MultichannelRecon::normal_op(const cfloat* in, cfloat* out) {
  refresh_kernel();
  const index_t n = plan_.image_elems();
  for (std::size_t c = 0; c < maps_.size(); ++c) apply_coil(maps_[c].data(), in, coil_ptrs_[c], n);
  // One Toeplitz apply covers every coil: the batch dimension is the coil
  // index, in place over the coil images.
  normal_.apply(coil_ptrs_.data(), coil_ptrs_.data(), coils(), ws_, plan_.pool());
  zero_complex(out, static_cast<std::size_t>(n));
  for (std::size_t c = 0; c < maps_.size(); ++c) {
    accumulate_coil_adjoint(maps_[c].data(), coil_ptrs_[c], out, n);
  }
  normal_applies_ += static_cast<double>(maps_.size());
}

ReconResult MultichannelRecon::reconstruct(const std::vector<cvecf>& data, const CgOptions& opt) {
  NUFFT_CHECK(data.size() == maps_.size());
  refresh_kernel();
  const index_t n = plan_.image_elems();
  ReconResult result;
  result.image.resize(static_cast<std::size_t>(n));

  Timer t;
  // rhs = Aᴴ b = Σ_c conj(S_c) ⊙ adjoint(data_c), adjoints batched over coils
  std::vector<const cfloat*> in(maps_.size());
  for (std::size_t c = 0; c < maps_.size(); ++c) {
    NUFFT_CHECK(static_cast<index_t>(data[c].size()) == plan_.sample_count());
    in[c] = data[c].data();
  }
  plan_.adjoint(in.data(), coil_ptrs_.data(), coils(), ws_, plan_.pool());
  cvecf rhs(static_cast<std::size_t>(n), cfloat(0.0f, 0.0f));
  for (std::size_t c = 0; c < maps_.size(); ++c) {
    accumulate_coil_adjoint(maps_[c].data(), coil_ptrs_[c], rhs.data(), n);
  }

  normal_applies_ = 0.0;
  result.cg = conjugate_gradient([this](const cfloat* x, cfloat* y) { normal_op(x, y); },
                                 rhs.data(), result.image.data(), n, opt);
  result.seconds = t.seconds();
  result.normal_applies = normal_applies_;
  return result;
}

}  // namespace nufft::mri
