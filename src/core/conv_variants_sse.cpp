// SSE-backend variant instantiations. Part 2 routes to the SSE instantiation
// of scatter_slices / gather_slices (core/batch_conv.cpp) at slice-group width 1
// or kSlabGroup (baseline SSE — the TU itself stays baseline-compiled; see
// the FP-contraction note in conv_variants.hpp).
#include "core/conv_variants.hpp"

namespace nufft::detail {

void append_sse_variants(std::vector<ConvVariant>& out) {
  register_backend<ConvBackend::kSse>(out);
}

}  // namespace nufft::detail
