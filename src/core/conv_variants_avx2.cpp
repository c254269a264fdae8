// AVX2-backend variant instantiations. This TU is deliberately compiled at
// the BASELINE ISA: the Part-1 window arithmetic here must round exactly like
// compute_window and the other backends (see the FP-contraction note in
// conv_variants.hpp), and all AVX2 execution is reached through extern
// functions from TUs that carry -mavx2 themselves (core/batch_conv_avx2.cpp
// for Part 2, at slice-group width 1 or kSlabGroup, and
// kernels/horner_avx2.cpp for the Horner row evaluation). The registry only
// hands out these variants when the plan resolved to the AVX2 conv mode,
// which implies avx2_available().
#include "core/conv_variants.hpp"

namespace nufft::detail {

void append_avx2_variants(std::vector<ConvVariant>& out) {
  register_backend<ConvBackend::kAvx2>(out);
}

}  // namespace nufft::detail
