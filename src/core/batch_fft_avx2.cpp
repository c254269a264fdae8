// The AVX2+FMA column stages: the Vec8f instantiation of
// core/batch_fft_stages.hpp. Compiled with -mavx2 -mfma -ffp-contract=off
// (see src/CMakeLists.txt).
#include "core/batch_fft_stages.hpp"
#include "simd/vec8f.hpp"

namespace nufft {

void stage2_cols_avx2(const cfloat* src, cfloat* dst, std::size_t nn, std::size_t sc,
                      const cfloat* tw) {
  detail::stage2_cols<simd::Vec8f>(src, dst, nn, sc, tw);
}

void stage4_cols_avx2(const cfloat* src, cfloat* dst, std::size_t nn, std::size_t sc,
                      const cfloat* tw, int sign) {
  detail::stage4_cols<simd::Vec8f>(src, dst, nn, sc, tw, sign);
}

}  // namespace nufft
