#include "exec/batch_nufft.hpp"

namespace nufft::exec {

BatchNufft::BatchNufft(const Nufft& plan, index_t max_batch)
    : plan_(&plan), ws_(plan.make_workspace(max_batch)) {}

void BatchNufft::forward(const cfloat* images, cfloat* raws, index_t nb) {
  std::vector<const cfloat*> ip(static_cast<std::size_t>(nb));
  std::vector<cfloat*> rp(static_cast<std::size_t>(nb));
  for (index_t b = 0; b < nb; ++b) {
    ip[static_cast<std::size_t>(b)] = images + b * plan_->image_elems();
    rp[static_cast<std::size_t>(b)] = raws + b * plan_->sample_count();
  }
  forward(ip.data(), rp.data(), nb);
}

void BatchNufft::adjoint(const cfloat* raws, cfloat* images, index_t nb) {
  std::vector<const cfloat*> rp(static_cast<std::size_t>(nb));
  std::vector<cfloat*> ip(static_cast<std::size_t>(nb));
  for (index_t b = 0; b < nb; ++b) {
    rp[static_cast<std::size_t>(b)] = raws + b * plan_->sample_count();
    ip[static_cast<std::size_t>(b)] = images + b * plan_->image_elems();
  }
  adjoint(rp.data(), ip.data(), nb);
}

}  // namespace nufft::exec
