// Tests for the convolution window (Part 1) and gather/scatter kernels
// (Part 2): correctness against a brute-force reference, wrap handling,
// scalar-vs-SIMD agreement (bitwise for the adjoint), and the SSE kernels
// against a model of their lane arithmetic (bitwise). The SIMD kernels run at
// slice-group width 1, as a single apply runs them.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.hpp"
#include "core/convolution.hpp"
#include "kernels/kaiser_bessel.hpp"
#include "test_util.hpp"

namespace nufft {
namespace {

using kernels::KaiserBessel;
using kernels::KernelLut;
using testing::Part2;

// Brute-force reference: scatter val onto every grid cell within radius W of
// the sample (separable product of kernel values), wrapping mod M.
template <int DIM>
void reference_scatter(const GridDesc& g, const KaiserBessel& kb, const float* coord,
                       cfloat val, cfloat* grid) {
  const auto W = kb.radius();
  const auto st = g.grid_strides();
  const auto lo = [&](int d) { return static_cast<index_t>(std::ceil(coord[d] - W)); };
  const auto hi = [&](int d) { return static_cast<index_t>(std::floor(coord[d] + W)); };
  const index_t x0 = lo(0), x1 = hi(0);
  const index_t y0 = DIM >= 2 ? lo(1) : 0, y1 = DIM >= 2 ? hi(1) : 0;
  const index_t z0 = DIM >= 3 ? lo(2) : 0, z1 = DIM >= 3 ? hi(2) : 0;
  for (index_t x = x0; x <= x1; ++x) {
    for (index_t y = y0; y <= y1; ++y) {
      for (index_t z = z0; z <= z1; ++z) {
        double w = kb.value(static_cast<double>(x) - coord[0]);
        if (DIM >= 2) w *= kb.value(static_cast<double>(y) - coord[1]);
        if (DIM >= 3) w *= kb.value(static_cast<double>(z) - coord[2]);
        index_t idx = ((x % g.m[0]) + g.m[0]) % g.m[0] * st[0];
        if (DIM >= 2) idx += ((y % g.m[1]) + g.m[1]) % g.m[1] * st[1];
        if (DIM >= 3) idx += ((z % g.m[2]) + g.m[2]) % g.m[2] * st[2];
        grid[idx] += val * static_cast<float>(w);
      }
    }
  }
}

TEST(Window, LengthAndIndicesForIntegerCoordinate) {
  const GridDesc g = make_grid(1, 32, 2.0);  // M = 64
  const auto kb = KaiserBessel::with_beatty_beta(4.0, 2.0);
  const KernelLut lut(kb, 512);
  WindowBuf wb;
  const float coord[1] = {30.0f};
  compute_window(g, lut, coord, 1, false, wb);
  EXPECT_EQ(wb.len[0], 9);  // 2W+1 for integral coordinates
  EXPECT_EQ(wb.start[0], 26);
  for (int i = 0; i < wb.len[0]; ++i) {
    EXPECT_EQ(wb.idx[0][i], 26 + i);
    EXPECT_NEAR(wb.win[0][i], static_cast<float>(kb.value(std::abs(26.0 + i - 30.0))), 2e-5);
  }
  EXPECT_TRUE(wb.inner_contiguous);
}

TEST(Window, FractionalCoordinateHas2WNeighbours) {
  const GridDesc g = make_grid(1, 32, 2.0);
  const auto kb = KaiserBessel::with_beatty_beta(4.0, 2.0);
  const KernelLut lut(kb, 512);
  WindowBuf wb;
  const float coord[1] = {30.5f};
  compute_window(g, lut, coord, 1, false, wb);
  EXPECT_EQ(wb.len[0], 8);  // ceil(26.5)=27 .. floor(34.5)=34
  EXPECT_EQ(wb.start[0], 27);
}

TEST(Window, WrapsAroundLowerEdge) {
  const GridDesc g = make_grid(1, 32, 2.0);
  const auto kb = KaiserBessel::with_beatty_beta(4.0, 2.0);
  const KernelLut lut(kb, 512);
  WindowBuf wb;
  const float coord[1] = {1.25f};
  compute_window(g, lut, coord, 1, false, wb);
  EXPECT_FALSE(wb.inner_contiguous);
  for (int i = 0; i < wb.len[0]; ++i) {
    ASSERT_GE(wb.idx[0][i], 0);
    ASSERT_LT(wb.idx[0][i], 64);
  }
  // First neighbours wrap to the top of the grid.
  EXPECT_EQ(wb.idx[0][0], 64 + wb.start[0]);
}

TEST(Window, WrapsAroundUpperEdge) {
  const GridDesc g = make_grid(1, 32, 2.0);
  const auto kb = KaiserBessel::with_beatty_beta(2.0, 2.0);
  const KernelLut lut(kb, 512);
  WindowBuf wb;
  const float coord[1] = {63.2f};
  compute_window(g, lut, coord, 1, false, wb);
  EXPECT_FALSE(wb.inner_contiguous);
  bool has_wrapped = false;
  for (int i = 0; i < wb.len[0]; ++i) has_wrapped |= wb.idx[0][i] < 4;
  EXPECT_TRUE(has_wrapped);
}

TEST(Window, DupArrayDuplicatesLastDimWeights) {
  const GridDesc g = make_grid(3, 16, 2.0);
  const auto kb = KaiserBessel::with_beatty_beta(4.0, 2.0);
  const KernelLut lut(kb, 512);
  WindowBuf wb;
  const float coord[3] = {10.3f, 12.7f, 15.1f};
  compute_window(g, lut, coord, 3, true, wb);
  for (int i = 0; i < wb.len[2]; ++i) {
    EXPECT_EQ(wb.win_dup[2 * i], wb.win[2][i]);
    EXPECT_EQ(wb.win_dup[2 * i + 1], wb.win[2][i]);
  }
}

// ---- scatter/gather correctness sweep ----

class ConvCorrectness : public ::testing::TestWithParam<std::tuple<int, double, bool>> {};

TEST_P(ConvCorrectness, ScatterMatchesBruteForce) {
  const auto [dim, W, simd] = GetParam();
  const GridDesc g = make_grid(dim, 16, 2.0);  // M = 32
  const auto kb = KaiserBessel::with_beatty_beta(W, 2.0);
  const KernelLut lut(kb, 2048);
  const auto st = g.grid_strides();
  Rng rng(static_cast<std::uint64_t>(dim * 100 + static_cast<int>(W)));

  for (int trial = 0; trial < 30; ++trial) {
    float coord[3];
    for (int d = 0; d < dim; ++d) {
      coord[d] = static_cast<float>(rng.uniform(0.0, 32.0));  // includes edges → wraps
    }
    const cfloat val(static_cast<float>(rng.uniform(-1, 1)),
                     static_cast<float>(rng.uniform(-1, 1)));

    cvecf got(static_cast<std::size_t>(g.grid_elems()), cfloat(0, 0));
    cvecf want(static_cast<std::size_t>(g.grid_elems()), cfloat(0, 0));

    WindowBuf wb;
    compute_window(g, lut, coord, dim, simd, wb);
    testing::scatter1(simd ? Part2::kSse : Part2::kScalar, dim, got.data(), st, wb, val);
    switch (dim) {
      case 1:
        reference_scatter<1>(g, kb, coord, val, want.data());
        break;
      case 2:
        reference_scatter<2>(g, kb, coord, val, want.data());
        break;
      default:
        reference_scatter<3>(g, kb, coord, val, want.data());
        break;
    }
    // LUT interpolation bounds the error; the geometric placement must agree.
    EXPECT_LT(testing::max_abs_diff(got.data(), want.data(), g.grid_elems()), 2e-5)
        << "trial " << trial;
  }
}

TEST_P(ConvCorrectness, GatherIsAdjointOfScatter) {
  // ⟨scatter(val), grid⟩ = val·conj(gather(grid)) — per-sample adjointness.
  const auto [dim, W, simd] = GetParam();
  const GridDesc g = make_grid(dim, 16, 2.0);
  const auto kb = KaiserBessel::with_beatty_beta(W, 2.0);
  const KernelLut lut(kb, 2048);
  const auto st = g.grid_strides();
  Rng rng(static_cast<std::uint64_t>(dim * 200 + static_cast<int>(W)));

  cvecf grid = testing::random_image(g.grid_elems(), 4242);

  for (int trial = 0; trial < 20; ++trial) {
    float coord[3];
    for (int d = 0; d < dim; ++d) coord[d] = static_cast<float>(rng.uniform(0.0, 32.0));
    WindowBuf wb;
    compute_window(g, lut, coord, dim, simd, wb);

    const Part2 kind = simd ? Part2::kSse : Part2::kScalar;
    const cfloat gathered = testing::gather1(kind, dim, grid.data(), st, wb);
    cvecf scattered(static_cast<std::size_t>(g.grid_elems()), cfloat(0, 0));
    testing::scatter1(kind, dim, scattered.data(), st, wb, cfloat(1.0f, 0.0f));
    cdouble dot(0, 0);
    for (index_t i = 0; i < g.grid_elems(); ++i) {
      dot += cdouble(grid[static_cast<std::size_t>(i)].real(),
                     grid[static_cast<std::size_t>(i)].imag()) *
             cdouble(scattered[static_cast<std::size_t>(i)].real(),
                     scattered[static_cast<std::size_t>(i)].imag());
    }
    EXPECT_NEAR(std::abs(dot - cdouble(gathered.real(), gathered.imag())), 0.0, 1e-4);
  }
}

std::string conv_name(const ::testing::TestParamInfo<std::tuple<int, double, bool>>& info) {
  return "d" + std::to_string(std::get<0>(info.param)) + "_W" +
         std::to_string(static_cast<int>(std::get<1>(info.param) * 10)) +
         (std::get<2>(info.param) ? "_simd" : "_scalar");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConvCorrectness,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Values(2.0, 2.5, 4.0, 6.0),
                       ::testing::Bool()),
    conv_name);

// ---- scalar vs SIMD agreement ----

class ScalarVsSimd : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(ScalarVsSimd, AdjointBitwiseIdentical) {
  const auto [dim, W] = GetParam();
  const GridDesc g = make_grid(dim, 24, 2.0);
  const auto kb = KaiserBessel::with_beatty_beta(W, 2.0);
  const KernelLut lut(kb, 1024);
  const auto st = g.grid_strides();
  Rng rng(999);

  cvecf a(static_cast<std::size_t>(g.grid_elems()), cfloat(0, 0));
  cvecf b(static_cast<std::size_t>(g.grid_elems()), cfloat(0, 0));
  for (int trial = 0; trial < 50; ++trial) {
    float coord[3];
    for (int d = 0; d < dim; ++d) coord[d] = static_cast<float>(rng.uniform(0.0, 48.0));
    const cfloat val(static_cast<float>(rng.uniform(-1, 1)),
                     static_cast<float>(rng.uniform(-1, 1)));
    WindowBuf wb;
    compute_window(g, lut, coord, dim, true, wb);
    testing::scatter1(Part2::kScalar, dim, a.data(), st, wb, val);
    testing::scatter1(Part2::kSse, dim, b.data(), st, wb, val);
  }
  for (index_t i = 0; i < g.grid_elems(); ++i) {
    ASSERT_EQ(a[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)]) << "i=" << i;
  }
}

TEST_P(ScalarVsSimd, ForwardAgreesToRounding) {
  const auto [dim, W] = GetParam();
  const GridDesc g = make_grid(dim, 24, 2.0);
  const auto kb = KaiserBessel::with_beatty_beta(W, 2.0);
  const KernelLut lut(kb, 1024);
  const auto st = g.grid_strides();
  Rng rng(1001);
  cvecf grid = testing::random_image(g.grid_elems(), 31);

  for (int trial = 0; trial < 50; ++trial) {
    float coord[3];
    for (int d = 0; d < dim; ++d) coord[d] = static_cast<float>(rng.uniform(0.0, 48.0));
    WindowBuf wb;
    compute_window(g, lut, coord, dim, true, wb);
    const cfloat s = testing::gather1(Part2::kScalar, dim, grid.data(), st, wb);
    const cfloat v = testing::gather1(Part2::kSse, dim, grid.data(), st, wb);
    ASSERT_NEAR(std::abs(s - v), 0.0, 1e-4 * (1.0 + std::abs(s)));
  }
}

std::string svs_name(const ::testing::TestParamInfo<std::tuple<int, double>>& info) {
  return "d" + std::to_string(std::get<0>(info.param)) + "_W" +
         std::to_string(static_cast<int>(std::get<1>(info.param)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ScalarVsSimd,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(2.0, 4.0, 8.0)),
                         svs_name);

// The SSE kernels' lanes, bitwise: two complex values per vector, multiply
// then add. The adjoint is also pinned to the scalar kernel above; the
// forward only to rounding, since its lane sums fold in another order.
TEST(Part2LaneModel, SseKernelsMatchBitwise) {
  testing::expect_part2_matches_lane_model(Part2::kSse, 4, /*fused=*/false);
}

TEST(Window, TinyGridWrapsEveryIndexIntoRange) {
  // Regression: a kernel footprint wider than TWO grid periods
  // (2W+1 = 9 > 2m = 6) used to escape the single-pass ±m wrap and index
  // out of range (silent corruption). The window must now wrap fully
  // mod m, matching the brute-force periodic reference for every
  // coordinate.
  GridDesc g;
  g.dim = 1;
  g.n = {2, 0, 0};
  g.m = {3, 0, 0};
  g.alpha = 1.5;
  const auto kb = KaiserBessel::with_beatty_beta(4.0, 2.0);
  const KernelLut lut(kb, 2048);
  const auto st = g.grid_strides();

  for (float k = 0.0f; k < 3.0f; k += 0.23f) {
    const float coord[1] = {k};
    WindowBuf wb;
    compute_window(g, lut, coord, 1, false, wb);
    ASSERT_GT(wb.len[0], 2 * 3) << "k=" << k;  // wider than two grid periods
    for (int i = 0; i < wb.len[0]; ++i) {
      ASSERT_GE(wb.idx[0][i], 0) << "k=" << k << " i=" << i;
      ASSERT_LT(wb.idx[0][i], 3) << "k=" << k << " i=" << i;
    }
    cvecf got(3, cfloat(0, 0));
    cvecf want(3, cfloat(0, 0));
    adj_scatter_scalar<1>(got.data(), st, wb, cfloat(1.0f, -0.5f));
    reference_scatter<1>(g, kb, coord, cfloat(1.0f, -0.5f), want.data());
    EXPECT_LT(testing::max_abs_diff(got.data(), want.data(), 3), 5e-4) << "k=" << k;
  }
}

TEST(Window, TinyGrid2dScatterMatchesPeriodicReference) {
  // Same regression in 2-d with unequal tiny dimensions: m = {3, 7}, both
  // narrower than the W = 4 footprint; neighbours wrap several times.
  GridDesc g;
  g.dim = 2;
  g.n = {2, 3, 0};
  g.m = {3, 7, 0};
  g.alpha = 2.0;
  const auto kb = KaiserBessel::with_beatty_beta(4.0, 2.0);
  const KernelLut lut(kb, 2048);
  const auto st = g.grid_strides();
  Rng rng(77);

  for (int trial = 0; trial < 25; ++trial) {
    const float coord[2] = {static_cast<float>(rng.uniform(0.0, 3.0)),
                            static_cast<float>(rng.uniform(0.0, 7.0))};
    WindowBuf wb;
    compute_window(g, lut, coord, 2, false, wb);
    for (int d = 0; d < 2; ++d) {
      for (int i = 0; i < wb.len[d]; ++i) {
        ASSERT_GE(wb.idx[d][i], 0);
        ASSERT_LT(wb.idx[d][i], g.m[static_cast<std::size_t>(d)]);
      }
    }
    cvecf got(static_cast<std::size_t>(g.grid_elems()), cfloat(0, 0));
    cvecf want(static_cast<std::size_t>(g.grid_elems()), cfloat(0, 0));
    adj_scatter_scalar<2>(got.data(), st, wb, cfloat(0.5f, 1.0f));
    reference_scatter<2>(g, kb, coord, cfloat(0.5f, 1.0f), want.data());
    EXPECT_LT(testing::max_abs_diff(got.data(), want.data(), g.grid_elems()), 2e-3)
        << "trial " << trial;
  }
}

TEST(Window, FloatRoundingNeverWidensSupport) {
  // Regression: ceil(k−W)/floor(k+W) evaluated in float can admit a
  // neighbour with |nx − k| > W when k±W rounds across an integer —
  // a 2W+2-wide window that overruns WindowBuf at W = 9.5 and writes one
  // cell past a privatized box. The trimmed window must satisfy the
  // support invariant for every coordinate, including the adversarial
  // nextafter(half-integer) family that triggers the round-to-even case.
  const GridDesc g = make_grid(1, 512, 2.0);  // M = 1024
  for (const double W : {4.0, 6.0, 9.5}) {
    const auto kb = KaiserBessel::with_beatty_beta(W, 2.0);
    const KernelLut lut(kb, 1024);
    const auto check = [&](float k) {
      if (!(k >= 0.0f) || k >= 1024.0f) return;
      const float coord[1] = {k};
      WindowBuf wb;
      compute_window(g, lut, coord, 1, false, wb);
      ASSERT_LE(wb.len[0], WindowBuf::kMaxLen) << "W=" << W << " k=" << k;
      ASSERT_LE(wb.len[0], 2 * static_cast<int>(std::ceil(W)) + 1) << "W=" << W << " k=" << k;
      for (int i = 0; i < wb.len[0]; ++i) {
        ASSERT_LE(std::fabs(static_cast<float>(wb.start[0] + i) - k), static_cast<float>(W))
            << "W=" << W << " k=" << k << " i=" << i;
      }
    };
    for (index_t c = 0; c < 1024; c += 3) {
      const float base = static_cast<float>(c);
      for (const float off : {0.0f, 0.5f}) {
        const float k = base + off;
        check(k);
        check(std::nextafterf(k, 0.0f));
        check(std::nextafterf(k, 2048.0f));
      }
    }
    check(std::nextafterf(1024.0f, 0.0f));  // domain boundary
  }
}

TEST(Convolution, EnergyConservedByScatterGatherPair) {
  // gather(scatter(val)) = val·Σ weights² > 0 — sanity of weight handling.
  const GridDesc g = make_grid(3, 16, 2.0);
  const auto kb = KaiserBessel::with_beatty_beta(4.0, 2.0);
  const KernelLut lut(kb, 1024);
  const auto st = g.grid_strides();
  WindowBuf wb;
  const float coord[3] = {16.4f, 17.6f, 15.2f};
  compute_window(g, lut, coord, 3, true, wb);
  cvecf grid(static_cast<std::size_t>(g.grid_elems()), cfloat(0, 0));
  testing::scatter1(Part2::kSse, 3, grid.data(), st, wb, cfloat(2.0f, -1.0f));
  const cfloat back = testing::gather1(Part2::kSse, 3, grid.data(), st, wb);
  double wsum = 0.0;
  for (int x = 0; x < wb.len[0]; ++x) {
    for (int y = 0; y < wb.len[1]; ++y) {
      for (int z = 0; z < wb.len[2]; ++z) {
        const double w = static_cast<double>(wb.win[0][x]) * wb.win[1][y] * wb.win[2][z];
        wsum += w * w;
      }
    }
  }
  EXPECT_NEAR(back.real(), 2.0 * wsum, 1e-3);
  EXPECT_NEAR(back.imag(), -1.0 * wsum, 1e-3);
}

}  // namespace
}  // namespace nufft
