#include "mri/cg.hpp"

#include <cmath>
#include <cstring>

#include "common/aligned.hpp"

namespace nufft::mri {

namespace {

double dot_real(const cfloat* a, const cfloat* b, index_t n) {
  // Re⟨a, b⟩ accumulated in double for stability.
  double acc = 0.0;
  for (index_t i = 0; i < n; ++i) {
    acc += static_cast<double>(a[i].real()) * b[i].real() +
           static_cast<double>(a[i].imag()) * b[i].imag();
  }
  return acc;
}

}  // namespace

CgResult conjugate_gradient(const std::function<void(const cfloat*, cfloat*)>& normal_op,
                            const cfloat* rhs, cfloat* x, index_t n, const CgOptions& opt) {
  CgResult result;
  cvecf r(static_cast<std::size_t>(n));
  cvecf p(static_cast<std::size_t>(n));
  cvecf q(static_cast<std::size_t>(n));

  zero_complex(x, static_cast<std::size_t>(n));
  std::memcpy(r.data(), rhs, static_cast<std::size_t>(n) * sizeof(cfloat));
  std::memcpy(p.data(), rhs, static_cast<std::size_t>(n) * sizeof(cfloat));

  double rho = dot_real(r.data(), r.data(), n);
  const double rho0 = rho;
  if (rho0 == 0.0) return result;

  for (int it = 0; it < opt.max_iters; ++it) {
    normal_op(p.data(), q.data());
    if (opt.lambda != 0.0) {
      const auto lam = static_cast<float>(opt.lambda);
      for (index_t i = 0; i < n; ++i) q[static_cast<std::size_t>(i)] += lam * p[static_cast<std::size_t>(i)];
    }
    const double pq = dot_real(p.data(), q.data(), n);
    // Stop unless ⟨p, AᴴA p⟩ is finite and positive: numerical loss of
    // definiteness, or non-finite data (one NaN sample makes every value NaN,
    // and NaN <= 0 is false).
    if (!(std::isfinite(pq) && pq > 0.0)) break;
    const auto alpha = static_cast<float>(rho / pq);
    for (index_t i = 0; i < n; ++i) {
      x[i] += alpha * p[static_cast<std::size_t>(i)];
      r[static_cast<std::size_t>(i)] -= alpha * q[static_cast<std::size_t>(i)];
    }
    const double rho_new = dot_real(r.data(), r.data(), n);
    ++result.iterations;
    result.residual_norms.push_back(std::sqrt(rho_new));
    if (rho_new / rho0 < opt.tolerance * opt.tolerance) break;
    const auto beta = static_cast<float>(rho_new / rho);
    for (index_t i = 0; i < n; ++i) {
      p[static_cast<std::size_t>(i)] = r[static_cast<std::size_t>(i)] + beta * p[static_cast<std::size_t>(i)];
    }
    rho = rho_new;
  }
  return result;
}

}  // namespace nufft::mri
