// Tests for the MRI application substrate: phantom, coil maps, CG solver,
// and the end-to-end iterative multichannel reconstruction.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/nudft.hpp"
#include "core/nufft.hpp"
#include "mri/cg.hpp"
#include "mri/coils.hpp"
#include "mri/phantom.hpp"
#include "mri/recon.hpp"
#include "test_util.hpp"

namespace nufft::mri {
namespace {

using datasets::TrajectoryType;

TEST(Phantom, RealValuedAndBounded) {
  const GridDesc g = make_grid(2, 32, 2.0);
  const cvecf img = make_phantom(g);
  ASSERT_EQ(static_cast<index_t>(img.size()), g.image_elems());
  double maxv = 0.0;
  for (const auto& v : img) {
    EXPECT_EQ(v.imag(), 0.0f);
    EXPECT_GE(v.real(), -0.5f);
    maxv = std::max(maxv, static_cast<double>(v.real()));
  }
  EXPECT_GT(maxv, 0.5);  // skull intensity present
}

TEST(Phantom, HasInteriorStructure) {
  const GridDesc g = make_grid(2, 64, 2.0);
  const cvecf img = make_phantom(g);
  // Center (inside brain) differs from skull shell value.
  const index_t c = (64 / 2) * 64 + 64 / 2;
  const float center = img[static_cast<std::size_t>(c)].real();
  EXPECT_GT(center, 0.0f);
  EXPECT_LT(center, 1.0f);
  // Corner is empty.
  EXPECT_EQ(img[0].real(), 0.0f);
}

TEST(Phantom, Works1dAnd3d) {
  for (int dim : {1, 3}) {
    const GridDesc g = make_grid(dim, 16, 2.0);
    const cvecf img = make_phantom(g);
    double energy = 0.0;
    for (const auto& v : img) energy += std::norm(v);
    EXPECT_GT(energy, 0.0) << "dim=" << dim;
  }
}

TEST(Nrmse, ZeroForIdenticalAndPositiveOtherwise) {
  const cvecf a = testing::random_image(100, 1);
  EXPECT_EQ(nrmse(a.data(), a.data(), 100), 0.0);
  cvecf b = a;
  b[0] += cfloat(0.5f, 0.0f);
  EXPECT_GT(nrmse(b.data(), a.data(), 100), 0.0);
}

TEST(Coils, MapsAreSmoothAndDistinct) {
  const GridDesc g = make_grid(2, 32, 2.0);
  const auto maps = make_coil_maps(g, 4);
  ASSERT_EQ(maps.size(), 4u);
  for (const auto& m : maps) {
    ASSERT_EQ(static_cast<index_t>(m.size()), g.image_elems());
    // Smoothness: neighbouring pixels within a row differ little (row
    // boundaries jump across the whole field of view).
    for (index_t r = 0; r < 32; ++r) {
      for (index_t i = 1; i < 32; ++i) {
        const auto a = static_cast<std::size_t>(r * 32 + i);
        ASSERT_LT(std::abs(m[a] - m[a - 1]), 0.2f);
      }
    }
  }
  // Distinct coils.
  EXPECT_GT(testing::rel_err(maps[0].data(), maps[1].data(), g.image_elems()), 0.1);
}

TEST(Coils, CombinedMagnitudeCoversFov) {
  const GridDesc g = make_grid(2, 32, 2.0);
  const auto maps = make_coil_maps(g, 8);
  for (index_t i = 0; i < g.image_elems(); ++i) {
    double ssq = 0.0;
    for (const auto& m : maps) ssq += std::norm(m[static_cast<std::size_t>(i)]);
    ASSERT_GT(ssq, 0.05) << "coil coverage hole at " << i;
  }
}

TEST(Coils, AdjointAccumulationIsConjugate) {
  const index_t n = 50;
  const cvecf map = testing::random_image(n, 2);
  const cvecf x = testing::random_image(n, 3);
  cvecf y(static_cast<std::size_t>(n), cfloat(0, 0));
  apply_coil(map.data(), x.data(), y.data(), n);
  cvecf back(static_cast<std::size_t>(n), cfloat(0, 0));
  accumulate_coil_adjoint(map.data(), y.data(), back.data(), n);
  for (index_t i = 0; i < n; ++i) {
    const cfloat want = map[static_cast<std::size_t>(i)] *
                        std::conj(map[static_cast<std::size_t>(i)]) *
                        x[static_cast<std::size_t>(i)];
    ASSERT_NEAR(std::abs(back[static_cast<std::size_t>(i)] - want), 0.0, 1e-5);
  }
}

TEST(Cg, SolvesDiagonalSystemExactly) {
  // Normal op = diag(d), rhs = d·x_true → CG must recover x_true quickly.
  const index_t n = 64;
  fvec d(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) d[static_cast<std::size_t>(i)] = 1.0f + 0.1f * (i % 7);
  const cvecf x_true = testing::random_image(n, 4);
  cvecf rhs(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    rhs[static_cast<std::size_t>(i)] = d[static_cast<std::size_t>(i)] * x_true[static_cast<std::size_t>(i)];
  }
  cvecf x(static_cast<std::size_t>(n));
  CgOptions opt;
  opt.max_iters = 50;
  opt.tolerance = 1e-10;
  const auto result = conjugate_gradient(
      [&](const cfloat* in, cfloat* out) {
        for (index_t i = 0; i < n; ++i) out[i] = d[static_cast<std::size_t>(i)] * in[i];
      },
      rhs.data(), x.data(), n, opt);
  EXPECT_LE(result.iterations, 50);
  EXPECT_LT(testing::rel_err(x.data(), x_true.data(), n), 1e-5);
}

TEST(Cg, ResidualNormsDecreaseMonotonically) {
  const index_t n = 32;
  const cvecf rhs = testing::random_image(n, 5);
  cvecf x(static_cast<std::size_t>(n));
  CgOptions opt;
  opt.max_iters = 10;
  opt.tolerance = 0.0;
  const auto result = conjugate_gradient(
      [&](const cfloat* in, cfloat* out) {
        // SPD tridiagonal-ish operator.
        for (index_t i = 0; i < n; ++i) {
          cfloat acc = 4.0f * in[i];
          if (i > 0) acc += in[i - 1];
          if (i + 1 < n) acc += in[i + 1];
          out[i] = acc;
        }
      },
      rhs.data(), x.data(), n, opt);
  for (std::size_t i = 1; i < result.residual_norms.size(); ++i) {
    ASSERT_LT(result.residual_norms[i], result.residual_norms[i - 1] * 1.5);
  }
  EXPECT_LT(result.residual_norms.back(), result.residual_norms.front());
}

TEST(Cg, ZeroRhsReturnsZero) {
  const index_t n = 16;
  cvecf rhs(static_cast<std::size_t>(n), cfloat(0, 0));
  cvecf x(static_cast<std::size_t>(n), cfloat(1, 1));
  const auto result = conjugate_gradient(
      [&](const cfloat* in, cfloat* out) {
        for (index_t i = 0; i < n; ++i) out[i] = in[i];
      },
      rhs.data(), x.data(), n, CgOptions{});
  EXPECT_EQ(result.iterations, 0);
  for (index_t i = 0; i < n; ++i) EXPECT_EQ(x[static_cast<std::size_t>(i)], cfloat(0, 0));
}

TEST(Cg, TikhonovRegularizationShrinksSolution) {
  const index_t n = 32;
  const cvecf rhs = testing::random_image(n, 6);
  cvecf x0(static_cast<std::size_t>(n)), x1(static_cast<std::size_t>(n));
  auto op = [&](const cfloat* in, cfloat* out) {
    for (index_t i = 0; i < n; ++i) out[i] = 2.0f * in[i];
  };
  CgOptions opt;
  opt.max_iters = 30;
  conjugate_gradient(op, rhs.data(), x0.data(), n, opt);
  opt.lambda = 5.0;
  conjugate_gradient(op, rhs.data(), x1.data(), n, opt);
  double n0 = 0, n1 = 0;
  for (index_t i = 0; i < n; ++i) {
    n0 += std::norm(x0[static_cast<std::size_t>(i)]);
    n1 += std::norm(x1[static_cast<std::size_t>(i)]);
  }
  EXPECT_LT(n1, n0);
}

// ---- end-to-end multichannel reconstruction ----

TEST(Recon, IterationsImproveAccuracy) {
  const GridDesc g = make_grid(2, 32, 2.0);
  datasets::TrajectoryParams tp;
  tp.n = 32;
  tp.k = 64;
  tp.s = 48;  // dense radial sampling → well-conditioned problem
  const auto set = datasets::make_trajectory(TrajectoryType::kRadial, 2, tp);

  PlanConfig cfg;
  cfg.threads = 2;
  Nufft plan(g, set, cfg);
  MultichannelRecon recon(plan, make_coil_maps(g, 4));

  const cvecf truth = make_phantom(g);
  const auto data = recon.simulate(truth.data());

  CgOptions opt;
  opt.tolerance = 0.0;
  opt.max_iters = 2;
  const auto r2 = recon.reconstruct(data, opt);
  opt.max_iters = 12;
  const auto r12 = recon.reconstruct(data, opt);

  const double e2 = nrmse(r2.image.data(), truth.data(), g.image_elems());
  const double e12 = nrmse(r12.image.data(), truth.data(), g.image_elems());
  EXPECT_LT(e12, e2);
  // Radial sampling covers the inscribed k-space disc only; the residual is
  // dominated by the unsampled corners of k-space, which bounds attainable
  // NRMSE for a sharp-edged phantom near ~0.3 at this tiny N.
  EXPECT_LT(e12, 0.33);
}

TEST(Recon, CountsNormalAppliesPerIteration) {
  const GridDesc g = make_grid(2, 16, 2.0);
  const auto set = testing::small_trajectory(TrajectoryType::kRadial, 2, 16, 1500);
  PlanConfig cfg;
  Nufft plan(g, set, cfg);
  const int coils = 3;
  MultichannelRecon recon(plan, make_coil_maps(g, coils));
  const cvecf truth = make_phantom(g);
  const auto data = recon.simulate(truth.data());
  CgOptions opt;
  opt.max_iters = 4;
  opt.tolerance = 0.0;
  const auto r = recon.reconstruct(data, opt);
  EXPECT_EQ(r.normal_applies, static_cast<double>(coils * r.cg.iterations));
  EXPECT_GT(r.seconds, 0.0);
}

TEST(Recon, SingleCoilUniformSensitivityRecoversPhantom) {
  const GridDesc g = make_grid(2, 24, 2.0);
  datasets::TrajectoryParams tp;
  tp.n = 24;
  tp.k = 48;
  tp.s = 40;
  const auto set = datasets::make_trajectory(TrajectoryType::kRadial, 2, tp);
  PlanConfig cfg;
  Nufft plan(g, set, cfg);
  std::vector<cvecf> uniform(1);
  uniform[0].assign(static_cast<std::size_t>(g.image_elems()), cfloat(1.0f, 0.0f));
  MultichannelRecon recon(plan, std::move(uniform));
  const cvecf truth = make_phantom(g);
  const auto data = recon.simulate(truth.data());
  CgOptions opt;
  opt.max_iters = 15;
  opt.tolerance = 1e-9;
  const auto r = recon.reconstruct(data, opt);
  // Same k-space-corner bound as above.
  EXPECT_LT(nrmse(r.image.data(), truth.data(), g.image_elems()), 0.3);
}

TEST(Recon, NormalOpMatchesExactCoilSum) {
  // Σ_c S_cᴴ AᴴA S_c·x with AᴴA from the exact NUDFT, in 2-D and 3-D.
  for (const int dim : {2, 3}) {
    SCOPED_TRACE(dim);
    const index_t N = dim == 2 ? 16 : 8;
    const GridDesc g = make_grid(dim, N, 2.0);
    const auto set = testing::small_trajectory(TrajectoryType::kRadial, dim, N, 900);
    PlanConfig cfg;
    cfg.threads = 2;
    Nufft plan(g, set, cfg);
    const auto maps = make_coil_maps(g, 3);
    MultichannelRecon recon(plan, maps);

    const index_t n = g.image_elems();
    const cvecf x = testing::random_image(n, 12);
    cvecf got(static_cast<std::size_t>(n));
    recon.normal_op(x.data(), got.data());

    ThreadPool pool(2);
    std::vector<cdouble> want(static_cast<std::size_t>(n));
    for (const cvecf& map : maps) {
      cvecf coil_image(static_cast<std::size_t>(n));
      apply_coil(map.data(), x.data(), coil_image.data(), n);
      std::vector<cdouble> raw(static_cast<std::size_t>(set.count()));
      baselines::nudft_forward(g, set, coil_image.data(), raw.data(), pool);
      const cvecf rawf(raw.begin(), raw.end());
      std::vector<cdouble> back(static_cast<std::size_t>(n));
      baselines::nudft_adjoint(g, set, rawf.data(), back.data(), pool);
      for (index_t i = 0; i < n; ++i) {
        const auto u = static_cast<std::size_t>(i);
        want[u] += std::conj(cdouble(map[u])) * back[u];
      }
    }
    EXPECT_LE(testing::rel_err(got.data(), want.data(), n), 1e-5);
  }
}

TEST(Recon, KernelFollowsInPlaceUpdate) {
  // A recon made before an in-place update_samples solves on the moved
  // trajectory exactly as a recon made after it.
  const GridDesc g = make_grid(2, 16, 2.0);
  const auto set = testing::small_trajectory(TrajectoryType::kRadial, 2, 16, 1500);
  PlanConfig cfg;
  cfg.threads = 2;
  Nufft plan(g, set, cfg);
  const auto maps = make_coil_maps(g, 3);
  MultichannelRecon recon(plan, maps);
  const cvecf truth = make_phantom(g);
  const auto data = recon.simulate(truth.data());
  CgOptions opt;
  opt.max_iters = 5;
  opt.tolerance = 0.0;
  const auto before = recon.reconstruct(data, opt);

  ASSERT_NE(plan.update_samples(testing::moved_samples(set, 5, 0.37f)), UpdatePath::kNoop);
  const auto after = recon.reconstruct(data, opt);
  MultichannelRecon fresh(plan, maps);
  const auto want = fresh.reconstruct(data, opt);

  ASSERT_EQ(after.cg.iterations, want.cg.iterations);
  EXPECT_EQ(after.cg.residual_norms, want.cg.residual_norms);
  for (std::size_t i = 0; i < want.image.size(); ++i) ASSERT_EQ(after.image[i], want.image[i]) << i;
  EXPECT_GT(testing::max_abs_diff(before.image.data(), after.image.data(), g.image_elems()), 0.0);
}

TEST(Recon, NanSampleStopsCgWithFiniteImage) {
  const GridDesc g = make_grid(2, 16, 2.0);
  const auto set = testing::small_trajectory(TrajectoryType::kRadial, 2, 16, 1500);
  PlanConfig cfg;
  Nufft plan(g, set, cfg);
  MultichannelRecon recon(plan, make_coil_maps(g, 3));
  const cvecf truth = make_phantom(g);
  auto data = recon.simulate(truth.data());
  data[1][7] = cfloat(std::nanf(""), 0.0f);
  CgOptions opt;
  opt.max_iters = 6;
  opt.tolerance = 0.0;
  const auto r = recon.reconstruct(data, opt);
  EXPECT_EQ(r.cg.iterations, 0);
  for (const cfloat v : r.image) {
    ASSERT_TRUE(std::isfinite(v.real()) && std::isfinite(v.imag()));
  }
}

}  // namespace
}  // namespace nufft::mri
