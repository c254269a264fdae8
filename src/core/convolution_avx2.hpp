// Runtime gate of the AVX2+FMA kernels (the paper's wider-SIMD extension):
// the Vec8f instantiations of the SIMD Part-2 kernels
// (core/batch_conv_avx2.cpp) and of the FFT column stages
// (core/batch_fft_avx2.cpp). Query avx2_available() before dispatching to
// any of them; calling them on an older CPU is undefined (SIGILL).
#pragma once

namespace nufft {

/// True when this process may execute the AVX2 kernels.
bool avx2_available();

}  // namespace nufft
