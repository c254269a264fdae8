// AVX2-backend variant instantiations. This TU is deliberately compiled at
// the BASELINE ISA: the Part-1 window arithmetic here, the Horner steps
// included, must round exactly like compute_window and the other backends
// (see the FP-contraction note in conv_variants.hpp), so Part 1 runs the
// same SSE window block as the SSE backend. All AVX2 execution is Part 2, reached
// through the extern AVX2 instantiation of the Part-2 kernels in
// core/batch_conv_avx2.cpp (which carries -mavx2 itself) at slice-group
// width 1 or kSlabGroup. The registry only
// hands out these variants when the plan resolved to the AVX2 conv mode,
// which implies avx2_available().
#include "core/conv_variants.hpp"

namespace nufft::detail {

void append_avx2_variants(std::vector<ConvVariant>& out) {
  register_backend<ConvBackend::kAvx2>(out);
}

}  // namespace nufft::detail
