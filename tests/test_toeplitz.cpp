// Tests for the Toeplitz-embedded normal operator.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "baselines/nudft.hpp"
#include "common/error.hpp"
#include "core/convolution_avx2.hpp"
#include "core/nufft.hpp"
#include "core/toeplitz.hpp"
#include "mri/dcf.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"

namespace nufft {
namespace {

using datasets::TrajectoryType;

// Exact AᴴWA·x through the O(N^d·K) NUDFT (w = nullptr: W = I).
std::vector<cdouble> exact_normal(const GridDesc& g, const datasets::SampleSet& set,
                                  const cfloat* x, const float* w) {
  ThreadPool pool(2);
  const auto k = static_cast<std::size_t>(set.count());
  std::vector<cdouble> raw(k);
  baselines::nudft_forward(g, set, x, raw.data(), pool);
  cvecf weighted(k);
  for (std::size_t i = 0; i < k; ++i) {
    weighted[i] = cfloat(raw[i] * (w != nullptr ? static_cast<double>(w[i]) : 1.0));
  }
  std::vector<cdouble> out(static_cast<std::size_t>(g.image_elems()));
  baselines::nudft_adjoint(g, set, weighted.data(), out.data(), pool);
  return out;
}

class ToeplitzSweep : public ::testing::TestWithParam<std::tuple<int, TrajectoryType>> {};

TEST_P(ToeplitzSweep, MatchesForwardAdjointPair) {
  const auto [dim, type] = GetParam();
  const index_t N = dim == 3 ? 10 : 24;
  const GridDesc g = make_grid(dim, N, 2.0);
  const auto set = testing::small_trajectory(type, dim, N, dim == 3 ? 800 : 1200);

  PlanConfig cfg;
  cfg.threads = 2;
  Nufft plan(g, set, cfg);
  Workspace ws = plan.make_workspace();
  ToeplitzNormal normal(plan, ws, plan.pool());

  const cvecf x = testing::random_image(g.image_elems(), 3);
  cvecf raw(static_cast<std::size_t>(set.count()));
  cvecf via_pair(static_cast<std::size_t>(g.image_elems()));
  plan.forward(x.data(), raw.data());
  plan.adjoint(raw.data(), via_pair.data());

  cvecf via_toeplitz(static_cast<std::size_t>(g.image_elems()));
  normal.apply(x.data(), via_toeplitz.data(), ws, plan.pool());

  // Both approximate the exact AᴴA; their mutual error is bounded by the
  // gridding accuracy (~1e-4 relative at W=4 in single precision).
  EXPECT_LT(testing::rel_err(via_toeplitz.data(), via_pair.data(), g.image_elems()), 2e-3);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ToeplitzSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(TrajectoryType::kRadial,
                                                              TrajectoryType::kRandom)),
                         [](const auto& info) {
                           return "d" + std::to_string(std::get<0>(info.param)) + "_" +
                                  datasets::trajectory_name(std::get<1>(info.param));
                         });

// The apply against the exact AᴴWA: d ∈ {1, 2, 3}; even N (power-of-two M)
// and odd N (M = 2N runs Bluestein); the paper's KB/LUT W = 4 plan and an
// ES/Horner plan at tolerance 1e-4; unweighted and weighted.
class ToeplitzExact : public ::testing::TestWithParam<std::tuple<int, bool, bool, bool>> {};

TEST_P(ToeplitzExact, MatchesExactNormalOperator) {
  const auto [dim, odd, es, weighted] = GetParam();
  const index_t N = (dim == 1 ? 32 : dim == 2 ? 16 : 8) - (odd ? 1 : 0);
  const GridDesc g = make_grid(dim, N, 2.0);
  const auto set =
      testing::small_trajectory(TrajectoryType::kRandom, dim, N, dim == 3 ? 600 : 900);

  PlanConfig cfg;
  cfg.threads = 2;
  double bound = 1e-5;
  if (es) {
    cfg.kernel = kernels::KernelType::kEs;
    cfg.eval = kernels::KernelEval::kHorner;
    cfg.tolerance = 1e-4;
    bound = cfg.tolerance;
  }
  fvec w(static_cast<std::size_t>(set.count()));
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = 0.5f + static_cast<float>((i * 7919) % 1000) / 1000.0f;
  }
  const float* wp = weighted ? w.data() : nullptr;

  Nufft plan(g, set, cfg);
  Workspace ws = plan.make_workspace(2);
  ToeplitzNormal normal(plan, ws, plan.pool(), wp);

  const cvecf x = testing::random_image(g.image_elems(), 21);
  cvecf got(x.size());
  normal.apply(x.data(), got.data(), ws, plan.pool());
  const std::vector<cdouble> want = exact_normal(g, set, x.data(), wp);
  EXPECT_LE(testing::rel_err(got.data(), want.data(), g.image_elems()), bound);
}

INSTANTIATE_TEST_SUITE_P(Exact, ToeplitzExact,
                         ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Bool(),
                                            ::testing::Bool(), ::testing::Bool()),
                         [](const auto& info) {
                           return "d" + std::to_string(std::get<0>(info.param)) +
                                  (std::get<1>(info.param) ? "_odd" : "_even") +
                                  (std::get<2>(info.param) ? "_es" : "_kb") +
                                  (std::get<3>(info.param) ? "_weighted" : "_unweighted");
                         });

TEST(Toeplitz, RejectsGridBelowTwiceTheImage) {
  datasets::TrajectoryParams tp;
  tp.n = 16;
  tp.k = 16;
  tp.s = 20;
  tp.alpha = 1.25;
  const auto set = datasets::make_trajectory(TrajectoryType::kRadial, 2, tp);
  const GridDesc g = make_grid(2, 16, 1.25);
  Nufft plan(g, set, PlanConfig{});
  Workspace ws = plan.make_workspace();
  try {
    ToeplitzNormal normal(plan, ws, plan.pool());
    FAIL() << "an alpha = 1.25 grid cannot hold the embedding";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
    EXPECT_NE(std::string(e.what()).find("m = 20"), std::string::npos) << e.what();
  }
}

// A batch of 5 at capacity 2 runs chunks of 2, 2 and 1. The plan's FFT
// never mixes slices, so on every backend each slice equals a single apply
// bitwise.
TEST(Toeplitz, ChunkedBatchEqualsSingleApplies) {
  for (const int backend : {0, 1, 2}) {
    if (backend == 2 && !avx2_available()) continue;
    SCOPED_TRACE("backend " + std::to_string(backend));
    const GridDesc g = make_grid(3, 8, 2.0);
    const auto set = testing::small_trajectory(TrajectoryType::kRadial, 3, 8, 500);
    PlanConfig cfg;
    cfg.threads = 2;
    cfg.use_simd = backend != 0;
    cfg.isa = backend == 2 ? SimdIsa::kAvx2 : SimdIsa::kSse;
    Nufft plan(g, set, cfg);
    Workspace ws2 = plan.make_workspace(2);
    Workspace ws1 = plan.make_workspace(1);
    ToeplitzNormal normal(plan, ws2, plan.pool());

    const auto n = static_cast<std::size_t>(g.image_elems());
    std::vector<cvecf> x(5);
    std::vector<cvecf> batched(5, cvecf(n));
    std::vector<const cfloat*> in;
    std::vector<cfloat*> out;
    for (std::size_t b = 0; b < 5; ++b) {
      x[b] = testing::random_image(g.image_elems(), 30 + b);
      in.push_back(x[b].data());
      out.push_back(batched[b].data());
    }
    normal.apply(in.data(), out.data(), 5, ws2, plan.pool());
    for (std::size_t b = 0; b < 5; ++b) {
      cvecf single(n);
      normal.apply(x[b].data(), single.data(), ws1, plan.pool());
      ASSERT_EQ(std::memcmp(batched[b].data(), single.data(), n * sizeof(cfloat)), 0)
          << "slice " << b;
    }
  }
}

TEST(Toeplitz, ApplyRecordsOneSpanWithFftPassesPerChunk) {
  const GridDesc g = make_grid(2, 16, 2.0);
  const auto set = testing::small_trajectory(TrajectoryType::kRandom, 2, 16, 600);
  Nufft plan(g, set, PlanConfig{});
  Workspace ws = plan.make_workspace(2);
  ToeplitzNormal normal(plan, ws, plan.pool());
  std::vector<cvecf> x(3, testing::random_image(g.image_elems(), 9));
  std::vector<cfloat*> ptrs;
  for (auto& v : x) ptrs.push_back(v.data());

  const bool was_on = obs::trace_enabled();
  obs::reset_spans();
  obs::set_trace_enabled(true);
  normal.apply(ptrs.data(), ptrs.data(), 3, ws, plan.pool());
  obs::set_trace_enabled(was_on);
  std::vector<std::int64_t> apply_args;
  std::vector<std::int64_t> fft_args;
  for (const auto& e : obs::drain_spans()) {
    if (std::string(e.name) == "toeplitz.apply") apply_args.push_back(e.arg);
    if (std::string(e.name) == "nufft.fft") fft_args.push_back(e.arg);
    EXPECT_NE(std::string(e.name), "nufft.conv");
  }
  EXPECT_EQ(apply_args, std::vector<std::int64_t>{3});
  EXPECT_EQ(fft_args, (std::vector<std::int64_t>{2, 2, 1, 1}));
}

TEST(Toeplitz, ApplyAfterInPlaceUpdateThrows) {
  const GridDesc g = make_grid(2, 16, 2.0);
  const auto set = testing::small_trajectory(TrajectoryType::kRandom, 2, 16, 600);
  PlanConfig cfg;
  Nufft plan(g, set, cfg);
  Workspace ws = plan.make_workspace();
  ToeplitzNormal normal(plan, ws, plan.pool());
  const cvecf x = testing::random_image(g.image_elems(), 8);
  cvecf out(x.size());
  normal.apply(x.data(), out.data(), ws, plan.pool());
  EXPECT_TRUE(normal.current());

  ASSERT_NE(plan.update_samples(testing::moved_samples(set, 5, 0.37f)), UpdatePath::kNoop);
  EXPECT_FALSE(normal.current());
  try {
    normal.apply(x.data(), out.data(), ws, plan.pool());
    FAIL() << "a kernel built for the old trajectory must not apply";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
  }
}

TEST(Toeplitz, OperatorIsHermitian) {
  const GridDesc g = make_grid(2, 20, 2.0);
  const auto set = testing::small_trajectory(TrajectoryType::kRandom, 2, 20, 800);
  PlanConfig cfg;
  Nufft plan(g, set, cfg);
  Workspace ws = plan.make_workspace();
  ToeplitzNormal normal(plan, ws, plan.pool());
  const cvecf x = testing::random_image(g.image_elems(), 4);
  const cvecf y = testing::random_image(g.image_elems(), 5);
  cvecf qx(x.size()), qy(y.size());
  normal.apply(x.data(), qx.data(), ws, plan.pool());
  normal.apply(y.data(), qy.data(), ws, plan.pool());
  cdouble lhs(0, 0), rhs(0, 0);
  for (index_t i = 0; i < g.image_elems(); ++i) {
    lhs += cdouble(qx[static_cast<std::size_t>(i)].real(), qx[static_cast<std::size_t>(i)].imag()) *
           std::conj(cdouble(y[static_cast<std::size_t>(i)].real(), y[static_cast<std::size_t>(i)].imag()));
    rhs += cdouble(x[static_cast<std::size_t>(i)].real(), x[static_cast<std::size_t>(i)].imag()) *
           std::conj(cdouble(qy[static_cast<std::size_t>(i)].real(), qy[static_cast<std::size_t>(i)].imag()));
  }
  EXPECT_LT(std::abs(lhs - rhs) / std::abs(lhs), 1e-4);
}

TEST(Toeplitz, OperatorIsPositive) {
  const GridDesc g = make_grid(2, 16, 2.0);
  const auto set = testing::small_trajectory(TrajectoryType::kRadial, 2, 16, 600);
  PlanConfig cfg;
  Nufft plan(g, set, cfg);
  Workspace ws = plan.make_workspace();
  ToeplitzNormal normal(plan, ws, plan.pool());
  for (std::uint64_t seed : {10u, 11u, 12u}) {
    const cvecf x = testing::random_image(g.image_elems(), seed);
    cvecf qx(x.size());
    normal.apply(x.data(), qx.data(), ws, plan.pool());
    cdouble dot(0, 0);
    for (index_t i = 0; i < g.image_elems(); ++i) {
      dot += cdouble(qx[static_cast<std::size_t>(i)].real(), qx[static_cast<std::size_t>(i)].imag()) *
             std::conj(cdouble(x[static_cast<std::size_t>(i)].real(), x[static_cast<std::size_t>(i)].imag()));
    }
    EXPECT_GT(dot.real(), 0.0);
    EXPECT_LT(std::abs(dot.imag()), 1e-3 * dot.real());
  }
}

TEST(Toeplitz, InPlaceApplyAllowed) {
  const GridDesc g = make_grid(2, 16, 2.0);
  const auto set = testing::small_trajectory(TrajectoryType::kSpiral, 2, 16, 400);
  PlanConfig cfg;
  Nufft plan(g, set, cfg);
  Workspace ws = plan.make_workspace();
  ToeplitzNormal normal(plan, ws, plan.pool());
  cvecf x = testing::random_image(g.image_elems(), 6);
  cvecf out(x.size());
  normal.apply(x.data(), out.data(), ws, plan.pool());
  normal.apply(x.data(), x.data(), ws, plan.pool());  // in place
  for (index_t i = 0; i < g.image_elems(); ++i) {
    ASSERT_EQ(x[static_cast<std::size_t>(i)], out[static_cast<std::size_t>(i)]);
  }
}

TEST(Toeplitz, WeightedOperatorMatchesWeightedPair) {
  const GridDesc g = make_grid(2, 16, 2.0);
  const auto set = testing::small_trajectory(TrajectoryType::kRadial, 2, 16, 900);
  PlanConfig cfg;
  Nufft plan(g, set, cfg);
  const fvec w = mri::radial_ramp_dcf(g, set);
  Workspace ws = plan.make_workspace();
  ToeplitzNormal normal(plan, ws, plan.pool(), w.data());

  const cvecf x = testing::random_image(g.image_elems(), 7);
  cvecf raw(static_cast<std::size_t>(set.count()));
  plan.forward(x.data(), raw.data());
  for (index_t i = 0; i < set.count(); ++i) {
    raw[static_cast<std::size_t>(i)] *= w[static_cast<std::size_t>(i)];
  }
  cvecf via_pair(x.size());
  plan.adjoint(raw.data(), via_pair.data());

  cvecf via_toeplitz(x.size());
  normal.apply(x.data(), via_toeplitz.data(), ws, plan.pool());
  EXPECT_LT(testing::rel_err(via_toeplitz.data(), via_pair.data(), g.image_elems()), 2e-3);
}

}  // namespace
}  // namespace nufft
