// Tests for the AVX2 (8-wide FMA) convolution extension: the kernels against
// SSE to rounding and against a model of their lane arithmetic bitwise, at
// slice-group width 1 as a single apply runs them, and AVX2 plans end to end.
// The kernel tests skip on CPUs without AVX2+FMA.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.hpp"
#include "core/convolution.hpp"
#include "core/convolution_avx2.hpp"
#include "core/nufft.hpp"
#include "kernels/kaiser_bessel.hpp"
#include "test_util.hpp"

namespace nufft {
namespace {

using kernels::KaiserBessel;
using kernels::KernelLut;
using testing::Part2;

#define SKIP_WITHOUT_AVX2()                              \
  if (!avx2_available()) {                               \
    GTEST_SKIP() << "CPU does not support AVX2 + FMA";   \
  }

class Avx2Kernels : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(Avx2Kernels, ScatterMatchesSse) {
  SKIP_WITHOUT_AVX2();
  const auto [dim, W] = GetParam();
  const GridDesc g = make_grid(dim, 24, 2.0);
  const auto kb = KaiserBessel::with_beatty_beta(W, 2.0);
  const KernelLut lut(kb, 1024);
  const auto st = g.grid_strides();
  Rng rng(2024);

  cvecf a(static_cast<std::size_t>(g.grid_elems()), cfloat(0, 0));
  cvecf b(static_cast<std::size_t>(g.grid_elems()), cfloat(0, 0));
  for (int trial = 0; trial < 40; ++trial) {
    float coord[3];
    for (int d = 0; d < dim; ++d) coord[d] = static_cast<float>(rng.uniform(0.0, 48.0));
    const cfloat val(static_cast<float>(rng.uniform(-1, 1)),
                     static_cast<float>(rng.uniform(-1, 1)));
    WindowBuf wb;
    compute_window(g, lut, coord, dim, true, wb);
    testing::scatter1(Part2::kSse, dim, a.data(), st, wb, val);
    testing::scatter1(Part2::kAvx2, dim, b.data(), st, wb, val);
  }
  // FMA contraction changes rounding; agreement is to tolerance.
  EXPECT_LT(testing::max_abs_diff(a.data(), b.data(), g.grid_elems()), 1e-5);
}

TEST_P(Avx2Kernels, GatherMatchesSse) {
  SKIP_WITHOUT_AVX2();
  const auto [dim, W] = GetParam();
  const GridDesc g = make_grid(dim, 24, 2.0);
  const auto kb = KaiserBessel::with_beatty_beta(W, 2.0);
  const KernelLut lut(kb, 1024);
  const auto st = g.grid_strides();
  const cvecf grid = testing::random_image(g.grid_elems(), 55);
  Rng rng(2025);

  for (int trial = 0; trial < 40; ++trial) {
    float coord[3];
    for (int d = 0; d < dim; ++d) coord[d] = static_cast<float>(rng.uniform(0.0, 48.0));
    WindowBuf wb;
    compute_window(g, lut, coord, dim, true, wb);
    const cfloat s = testing::gather1(Part2::kSse, dim, grid.data(), st, wb);
    const cfloat v = testing::gather1(Part2::kAvx2, dim, grid.data(), st, wb);
    ASSERT_NEAR(std::abs(s - v), 0.0, 1e-4 * (1.0 + std::abs(s)));
  }
}

// The AVX2 kernels' lanes, bitwise: four complex values per vector, fused
// multiply-add, with the tail cells and the scalar parts rounding as in the
// SSE kernels.
TEST(Part2LaneModel, Avx2KernelsMatchBitwise) {
  SKIP_WITHOUT_AVX2();
  testing::expect_part2_matches_lane_model(Part2::kAvx2, 8, /*fused=*/true);
}

INSTANTIATE_TEST_SUITE_P(Sweep, Avx2Kernels,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(2.0, 4.0, 8.0)),
                         [](const auto& info) {
                           return "d" + std::to_string(std::get<0>(info.param)) + "_W" +
                                  std::to_string(static_cast<int>(std::get<1>(info.param)));
                         });

TEST(Avx2Plan, EndToEndMatchesSsePlan) {
  SKIP_WITHOUT_AVX2();
  const GridDesc g = make_grid(3, 12, 2.0);
  const auto set =
      testing::small_trajectory(datasets::TrajectoryType::kRadial, 3, 12, 600);
  const cvecf img = testing::random_image(g.image_elems(), 77);
  const cvecf raw = testing::random_raw(set.count(), 78);

  PlanConfig sse_cfg;
  sse_cfg.threads = 3;
  sse_cfg.isa = SimdIsa::kSse;
  PlanConfig avx_cfg = sse_cfg;
  avx_cfg.isa = SimdIsa::kAvx2;

  Nufft sse(g, set, sse_cfg);
  Nufft avx(g, set, avx_cfg);
  EXPECT_EQ(avx.conv_mode(), Nufft::ConvMode::kAvx2);

  cvecf raw_a(raw.size()), raw_b(raw.size());
  sse.forward(img.data(), raw_a.data());
  avx.forward(img.data(), raw_b.data());
  EXPECT_LT(testing::rel_err(raw_a.data(), raw_b.data(), set.count()), 1e-5);

  cvecf img_a(img.size()), img_b(img.size());
  sse.adjoint(raw.data(), img_a.data());
  avx.adjoint(raw.data(), img_b.data());
  EXPECT_LT(testing::rel_err(img_a.data(), img_b.data(), g.image_elems()), 1e-5);
}

TEST(Avx2Plan, AutoSelectsWidestAvailable) {
  const GridDesc g = make_grid(2, 16, 2.0);
  const auto set = testing::small_trajectory(datasets::TrajectoryType::kRandom, 2, 16, 100);
  PlanConfig cfg;
  cfg.isa = SimdIsa::kAuto;
  Nufft plan(g, set, cfg);
  if (avx2_available()) {
    EXPECT_EQ(plan.conv_mode(), Nufft::ConvMode::kAvx2);
  } else {
    EXPECT_EQ(plan.conv_mode(), Nufft::ConvMode::kSse);
  }
}

TEST(Avx2Plan, ScalarConfigIgnoresIsa) {
  const GridDesc g = make_grid(2, 16, 2.0);
  const auto set = testing::small_trajectory(datasets::TrajectoryType::kRandom, 2, 16, 100);
  PlanConfig cfg;
  cfg.use_simd = false;
  cfg.isa = SimdIsa::kAuto;
  Nufft plan(g, set, cfg);
  EXPECT_EQ(plan.conv_mode(), Nufft::ConvMode::kScalar);
}

}  // namespace
}  // namespace nufft
