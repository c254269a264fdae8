// Internal: AVX2+FMA variants of the column-interleaved Stockham stages
// (see batch_fft.cpp for the SSE versions and the layout contract). The
// column count must be a multiple of 4 complex values so each 256-bit op
// covers whole columns. Implemented in batch_fft_avx2.cpp, which is the
// only TU compiled with -mavx2; gate on avx2_available().
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace nufft {

void stage2_cols_avx2(const cfloat* src, cfloat* dst, std::size_t nn, std::size_t sc,
                      const cfloat* tw);
void stage4_cols_avx2(const cfloat* src, cfloat* dst, std::size_t nn, std::size_t sc,
                      const cfloat* tw, int sign);

}  // namespace nufft
