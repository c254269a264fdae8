// Baseline-compiled: this check must run on CPUs without AVX2.
#include "core/convolution_avx2.hpp"

namespace nufft {

bool avx2_available() {
#if defined(__GNUC__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

}  // namespace nufft
