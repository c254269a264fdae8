// The SSE instantiation of the SIMD Part-2 kernels (core/batch_conv_simd.hpp):
// two complex cells per 128-bit op, multiply then add.
#include "core/batch_conv_simd.hpp"
#include "simd/vec4f.hpp"

namespace nufft {

template <>
struct detail::SimdVec<ConvBackend::kSse> {
  using type = simd::Vec4f;
};

NUFFT_INSTANTIATE_PART2(ConvBackend::kSse)

}  // namespace nufft
