// The AVX2+FMA instantiation of the SIMD Part-2 kernels
// (core/batch_conv_simd.hpp): four complex cells per 256-bit op, fused
// multiply-add. Compiled with -mavx2 -mfma -ffp-contract=off (see
// src/CMakeLists.txt); gate on avx2_available() before dispatching here.
#include "core/batch_conv_simd.hpp"
#include "simd/vec8f.hpp"

namespace nufft {

template <>
struct detail::SimdVec<ConvBackend::kAvx2> {
  using type = simd::Vec8f;
};

NUFFT_INSTANTIATE_PART2(ConvBackend::kAvx2)

}  // namespace nufft
