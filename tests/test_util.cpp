#include "test_util.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/batch_conv.hpp"
#include "kernels/kaiser_bessel.hpp"
#include "kernels/lut.hpp"

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

// The scalar kernel, or the SIMD template's instantiation for the backend.
template <int DIM>
void scatter1_dim(Part2 kind, cfloat* grid, const std::array<index_t, 3>& st,
                  const WindowBuf& wb, cfloat val) {
  if (kind == Part2::kScalar) return adj_scatter_scalar<DIM>(grid, st, wb, val);
  const auto simd = kind == Part2::kSse ? &scatter_slices<ConvBackend::kSse, DIM, 1>
                                        : &scatter_slices<ConvBackend::kAvx2, DIM, 1>;
  simd(grid, 0, 1, st, wb, &val);
}

template <int DIM>
cfloat gather1_dim(Part2 kind, const cfloat* grid, const std::array<index_t, 3>& st,
                   const WindowBuf& wb) {
  if (kind == Part2::kScalar) return fwd_gather_scalar<DIM>(grid, st, wb);
  const auto simd = kind == Part2::kSse ? &gather_slices<ConvBackend::kSse, DIM, 1>
                                        : &gather_slices<ConvBackend::kAvx2, DIM, 1>;
  cfloat out;
  simd(grid, 0, 1, st, wb, &out);
  return out;
}

// The lane model. The kernels visit the window's last-dim rows in order,
// each with the product wxy of its leading-dim weights (1 in 1-D).
template <class RowFn>
void model_rows(int dim, const WindowBuf& wb, const std::array<index_t, 3>& st, RowFn&& row) {
  if (dim == 1) {
    row(index_t{0}, 1.0f);
  } else if (dim == 2) {
    for (int iy = 0; iy < wb.len[0]; ++iy) row(wb.idx[0][iy] * st[0], wb.win[0][iy]);
  } else {
    for (int ix = 0; ix < wb.len[0]; ++ix) {
      for (int iy = 0; iy < wb.len[1]; ++iy) {
        row(wb.idx[0][ix] * st[0] + wb.idx[1][iy] * st[1], wb.win[0][ix] * wb.win[1][iy]);
      }
    }
  }
}

float model_madd(float a, float b, float c, bool fused) {
  return fused ? std::fma(a, b, c) : a * b + c;
}

// Scatter: a contiguous row's cells in whole vectors get madd(val, w·wxy,
// cell), lane by lane; the trailing cells and every wrapped cell get
// cell + val·(w·wxy).
void scatter_model(int lanes, bool fused, int dim, cfloat* grid,
                   const std::array<index_t, 3>& st, const WindowBuf& wb, cfloat val) {
  const int c = lanes / 2;  // complex values per vector
  const int last = dim - 1;
  const float v[2] = {val.real(), val.imag()};
  model_rows(dim, wb, st, [&](index_t off, float wxy) {
    const int len = wb.len[last];
    const int nvec = wb.inner_contiguous ? len / c : 0;
    for (int t = 0; t < len; ++t) {
      cfloat& cell = grid[off + wb.idx[last][t]];
      if (t < c * nvec) {
        float x[2] = {cell.real(), cell.imag()};
        for (int k = 0; k < 2; ++k) x[k] = model_madd(v[k], wb.win_dup[2 * t + k] * wxy, x[k], fused);
        cell = cfloat(x[0], x[1]);
      } else {
        const float w = wb.win[last][t] * wxy;
        cell = cfloat(cell.real() + v[0] * w, cell.imag() + v[1] * w);
      }
    }
  });
}

// Gather: each row's lane sums start from the first vector's product and
// continue with madd; they join the lane accumulators, which fold pairwise
// by halves ((a0+a4)+(a2+a6) and (a1+a5)+(a3+a7) for 8 lanes, a0+a2 and
// a1+a3 for 4) before the scalar sum of the trailing and wrapped cells.
cfloat gather_model(int lanes, bool fused, int dim, const cfloat* grid,
                    const std::array<index_t, 3>& st, const WindowBuf& wb) {
  const int c = lanes / 2;
  const int last = dim - 1;
  std::vector<float> acc(static_cast<std::size_t>(lanes), 0.0f);
  float tail[2] = {0.0f, 0.0f};
  model_rows(dim, wb, st, [&](index_t off, float wxy) {
    const int len = wb.len[last];
    const int nvec = wb.inner_contiguous ? len / c : 0;
    std::vector<float> rsum(static_cast<std::size_t>(lanes), 0.0f);
    for (int j = 0; j < nvec; ++j) {
      for (int l = 0; l < lanes; ++l) {
        const int t = c * j + l / 2;
        const cfloat g = grid[off + wb.idx[last][t]];
        const float x = l % 2 == 0 ? g.real() : g.imag();
        const float w = wb.win_dup[2 * t + l % 2] * wxy;
        auto& r = rsum[static_cast<std::size_t>(l)];
        r = j == 0 ? x * w : model_madd(x, w, r, fused);
      }
    }
    for (int l = 0; l < lanes; ++l) acc[static_cast<std::size_t>(l)] += rsum[static_cast<std::size_t>(l)];
    for (int t = c * nvec; t < len; ++t) {
      const cfloat g = grid[off + wb.idx[last][t]];
      const float w = wb.win[last][t] * wxy;
      tail[0] += g.real() * w;
      tail[1] += g.imag() * w;
    }
  });
  for (int half = lanes / 2; half >= 2; half /= 2) {
    for (int l = 0; l < half; ++l) {
      acc[static_cast<std::size_t>(l)] += acc[static_cast<std::size_t>(l + half)];
    }
  }
  return cfloat(acc[0] + tail[0], acc[1] + tail[1]);
}

}  // namespace

void expect_part2_matches_lane_model(Part2 kind, int lanes, bool fused) {
  Rng rng(4242);
  for (int dim = 1; dim <= 3; ++dim) {
    const GridDesc g = make_grid(dim, 12, 2.0);
    const auto st = g.grid_strides();
    const cvecf grid = random_image(g.grid_elems(), 60 + dim);
    for (const double W : {2.0, 2.5, 4.0, 6.0, 8.0}) {
      const auto kb = kernels::KaiserBessel::with_beatty_beta(W, 2.0);
      const kernels::KernelLut lut(kb, 1024);
      cvecf want(static_cast<std::size_t>(g.grid_elems()), cfloat(0, 0));
      cvecf got = want;
      int gather_mismatches = 0;
      for (int s = 0; s < 200; ++s) {
        float coord[3];
        for (int d = 0; d < dim; ++d) {
          coord[d] = static_cast<float>(rng.uniform(0.0, static_cast<double>(g.m[0])));
        }
        const cfloat val(static_cast<float>(rng.uniform(-1, 1)),
                         static_cast<float>(rng.uniform(-1, 1)));
        WindowBuf wb;
        compute_window(g, lut, coord, dim, true, wb);
        scatter_model(lanes, fused, dim, want.data(), st, wb, val);
        scatter1(kind, dim, got.data(), st, wb, val);
        const cfloat gm = gather_model(lanes, fused, dim, grid.data(), st, wb);
        const cfloat gk = gather1(kind, dim, grid.data(), st, wb);
        gather_mismatches += std::memcmp(&gm, &gk, sizeof(cfloat)) != 0;
      }
      EXPECT_EQ(gather_mismatches, 0) << "gather d" << dim << " W " << W;
      EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(cfloat)), 0)
          << "scatter d" << dim << " W " << W;
    }
  }
}

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
