#include "test_util.hpp"

#include <cmath>

#include "core/batch_conv.hpp"

namespace nufft::testing {

cvecf random_image(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  cvecf v(static_cast<std::size_t>(n));
  for (auto& x : v) {
    x = cfloat(static_cast<float>(rng.uniform(-1, 1)), static_cast<float>(rng.uniform(-1, 1)));
  }
  return v;
}

cvecf random_raw(index_t n, std::uint64_t seed) { return random_image(n, seed ^ 0xABCDEF); }

double rel_err(const cfloat* a, const cdouble* b, index_t n) {
  double num = 0.0, den = 0.0;
  for (index_t i = 0; i < n; ++i) {
    const cdouble d = cdouble(a[i].real(), a[i].imag()) - b[i];
    num += std::norm(d);
    den += std::norm(b[i]);
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

double rel_err(const cfloat* a, const cfloat* b, index_t n) {
  double num = 0.0, den = 0.0;
  for (index_t i = 0; i < n; ++i) {
    const cdouble d = cdouble(a[i].real() - b[i].real(), a[i].imag() - b[i].imag());
    num += std::norm(d);
    den += std::norm(cdouble(b[i].real(), b[i].imag()));
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

double max_abs_diff(const cfloat* a, const cfloat* b, index_t n) {
  double m = 0.0;
  for (index_t i = 0; i < n; ++i) {
    m = std::max(m, static_cast<double>(std::abs(a[i] - b[i])));
  }
  return m;
}

datasets::SampleSet small_trajectory(datasets::TrajectoryType type, int dim, index_t n,
                                     index_t approx_count, std::uint64_t seed) {
  datasets::TrajectoryParams p;
  p.n = n;
  p.k = std::max<index_t>(4, n / 2);
  p.s = std::max<index_t>(1, approx_count / p.k);
  p.seed = seed;
  return datasets::make_trajectory(type, dim, p);
}

datasets::SampleSet moved_samples(const datasets::SampleSet& set, index_t stride, float step) {
  datasets::SampleSet out = set;
  const auto m = static_cast<float>(set.m);
  for (int d = 0; d < set.dim; ++d) {
    auto& c = out.coords[static_cast<std::size_t>(d)];
    for (std::size_t i = 0; i < c.size(); i += static_cast<std::size_t>(stride)) {
      c[i] += step;
      if (c[i] >= m) c[i] -= m;
    }
  }
  return out;
}

namespace {

template <int DIM>
void scatter1_dim(Part2 kind, cfloat* grid, const std::array<index_t, 3>& st,
                  const WindowBuf& wb, cfloat val) {
  switch (kind) {
    case Part2::kScalar: return adj_scatter_scalar<DIM>(grid, st, wb, val);
    case Part2::kSse: return scatter_slices_sse<DIM, 1>(grid, 0, 1, st, wb, &val);
    case Part2::kAvx2: return scatter_slices_avx2<DIM, 1>(grid, 0, 1, st, wb, &val);
  }
}

template <int DIM>
cfloat gather1_dim(Part2 kind, const cfloat* grid, const std::array<index_t, 3>& st,
                   const WindowBuf& wb) {
  cfloat out;
  switch (kind) {
    case Part2::kScalar: return fwd_gather_scalar<DIM>(grid, st, wb);
    case Part2::kSse: gather_slices_sse<DIM, 1>(grid, 0, 1, st, wb, &out); break;
    case Part2::kAvx2: gather_slices_avx2<DIM, 1>(grid, 0, 1, st, wb, &out); break;
  }
  return out;
}

}  // namespace

void scatter1(Part2 kind, int dim, cfloat* grid, const std::array<index_t, 3>& strides,
              const WindowBuf& wb, cfloat val) {
  switch (dim) {
    case 1: return scatter1_dim<1>(kind, grid, strides, wb, val);
    case 2: return scatter1_dim<2>(kind, grid, strides, wb, val);
    default: return scatter1_dim<3>(kind, grid, strides, wb, val);
  }
}

cfloat gather1(Part2 kind, int dim, const cfloat* grid, const std::array<index_t, 3>& strides,
               const WindowBuf& wb) {
  switch (dim) {
    case 1: return gather1_dim<1>(kind, grid, strides, wb);
    case 2: return gather1_dim<2>(kind, grid, strides, wb);
    default: return gather1_dim<3>(kind, grid, strides, wb);
  }
}

}  // namespace nufft::testing
