#include "kernels/horner.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "simd/vec4f.hpp"

namespace nufft::kernels {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// The row of `h` at abscissa z (clamped to [0, 1]) over its 4·NV = stride()
/// segments, with the accumulators in registers: acc = c₀, then acc·t + c_k
/// per degree step. Writes the first len weights to out.
template <int NV>
[[gnu::always_inline]] inline void horner_rows(const KernelHorner& h, float z, int len,
                                               float* out) {
  z = z < 0.0f ? 0.0f : (z > 1.0f ? 1.0f : z);
  const simd::Vec4f t(2.0f * z - 1.0f);
  const float* c = h.coefficients();
  const auto stride = static_cast<std::size_t>(4 * NV);
  simd::Vec4f acc[NV];
  for (int j = 0; j < NV; ++j) acc[j] = simd::Vec4f::loadu(c + 4 * j);
  for (int k = 1; k <= h.degree(); ++k) {
    const float* row = c + static_cast<std::size_t>(k) * stride;
    for (int j = 0; j < NV; ++j) acc[j] = acc[j] * t + simd::Vec4f::loadu(row + 4 * j);
  }
  alignas(16) float w[4 * NV];
  for (int j = 0; j < NV; ++j) acc[j].store(w + 4 * j);
  for (int i = 0; i < len; ++i) out[i] = w[i];
}

}  // namespace

KernelHorner::KernelHorner(const Kernel1d& kernel, int degree) {
  const double W = kernel.radius();
  NUFFT_CHECK_MSG(W > 0.0, "Horner evaluator needs a positive kernel radius");
  NUFFT_CHECK_MSG(std::floor(2.0 * W) == 2.0 * W,
                  "Horner segments require 2*radius to be an integer so segment "
                  "boundaries align with the support edge");
  radius_ = static_cast<float>(W);
  // Pad the segment stride to a multiple of 8 so eval_window reads whole
  // coefficient rows in 4-float vectors from one of four instantiations.
  // The padded entries stay zero and only ever feed lanes past `len`, which
  // the evaluator discards — numerically the padding is invisible.
  const int w2 = static_cast<int>(2.0 * W);
  nseg_ = segments_for(w2);
  stride_ = stride_for(w2);
  NUFFT_CHECK_MSG(stride_ <= kMaxStride, "kernel too wide for Horner evaluation");
  // Degree scales with width like FINUFFT's (full-width + 3) rule, with a
  // small margin since the fit is stored in float; capped where float
  // round-off dominates anyway.
  degree_ = degree > 0 ? degree : std::min(16, static_cast<int>(std::ceil(2.0 * W)) + 4);

  const int nnodes = degree_ + 1;
  coef_.assign(static_cast<std::size_t>((degree_ + 1) * stride_), 0.0f);
  std::vector<double> f(static_cast<std::size_t>(nnodes));
  std::vector<double> cheb(static_cast<std::size_t>(nnodes));
  std::vector<double> mono(static_cast<std::size_t>(nnodes));
  std::vector<double> tkm1(static_cast<std::size_t>(nnodes));
  std::vector<double> tk(static_cast<std::size_t>(nnodes));
  std::vector<double> tnext(static_cast<std::size_t>(nnodes));

  for (int i = 0; i < nseg_; ++i) {
    // Segment i covers d = z − W + i for z ∈ [0, 1]. Clamp d to the support
    // so segments that touch (or lie past) the edge fit the one-sided value
    // instead of the discontinuous jump to zero — only z values mapping
    // inside the support are ever evaluated.
    for (int j = 0; j < nnodes; ++j) {
      const double t = std::cos(kPi * (j + 0.5) / nnodes);
      const double z = 0.5 * (t + 1.0);
      const double d = std::clamp(z - W + i, -W, W);
      f[static_cast<std::size_t>(j)] = kernel.value(d);
    }
    // Chebyshev coefficients by the exact node DCT.
    for (int m = 0; m < nnodes; ++m) {
      double acc = 0.0;
      for (int j = 0; j < nnodes; ++j) {
        acc += f[static_cast<std::size_t>(j)] * std::cos(kPi * m * (j + 0.5) / nnodes);
      }
      cheb[static_cast<std::size_t>(m)] = (m == 0 ? 1.0 : 2.0) * acc / nnodes;
    }
    // Change of basis T_m(t) → monomials in t via the Chebyshev recurrence.
    std::fill(mono.begin(), mono.end(), 0.0);
    std::fill(tkm1.begin(), tkm1.end(), 0.0);
    std::fill(tk.begin(), tk.end(), 0.0);
    tkm1[0] = 1.0;  // T_0
    if (nnodes > 1) tk[1] = 1.0;  // T_1
    mono[0] += cheb[0];
    if (degree_ >= 1) mono[1] += cheb[1];
    for (int m = 2; m <= degree_; ++m) {
      std::fill(tnext.begin(), tnext.end(), 0.0);
      for (int p = 0; p + 1 < nnodes; ++p) {
        tnext[static_cast<std::size_t>(p + 1)] += 2.0 * tk[static_cast<std::size_t>(p)];
      }
      for (int p = 0; p < nnodes; ++p) tnext[static_cast<std::size_t>(p)] -= tkm1[static_cast<std::size_t>(p)];
      for (int p = 0; p < nnodes; ++p) {
        mono[static_cast<std::size_t>(p)] += cheb[static_cast<std::size_t>(m)] * tnext[static_cast<std::size_t>(p)];
      }
      std::swap(tkm1, tk);
      std::swap(tk, tnext);
    }
    // Transposed store: row k holds the t^(degree−k) coefficient of every
    // segment, so the Horner inner loop reads one contiguous float row.
    for (int p = 0; p <= degree_; ++p) {
      coef_[static_cast<std::size_t>((degree_ - p) * stride_ + i)] =
          static_cast<float>(mono[static_cast<std::size_t>(p)]);
    }
  }
}

void KernelHorner::eval_window(float z, int len, float* out) const {
  NUFFT_DASSERT(0 <= len && len <= segments());
  switch (stride_) {
    case 8:
      return horner_rows<2>(*this, z, len, out);
    case 16:
      return horner_rows<4>(*this, z, len, out);
    case 24:
      return horner_rows<6>(*this, z, len, out);
    default:
      return horner_rows<8>(*this, z, len, out);
  }
}

float KernelHorner::operator()(float d) const {
  if (d < -radius_ || d > radius_) return 0.0f;
  int i = static_cast<int>(std::floor(d + radius_));
  if (i >= nseg_) i = nseg_ - 1;
  if (i < 0) i = 0;
  const float z = d + radius_ - static_cast<float>(i);
  const float t = 2.0f * (z < 0.0f ? 0.0f : (z > 1.0f ? 1.0f : z)) - 1.0f;
  const float* c = coef_.data();
  float acc = c[i];
  for (int k = 1; k <= degree_; ++k) {
    acc = acc * t + c[static_cast<std::size_t>(k) * static_cast<std::size_t>(stride_) + static_cast<std::size_t>(i)];
  }
  return acc;
}

}  // namespace nufft::kernels
