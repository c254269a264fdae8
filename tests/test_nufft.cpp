// End-to-end NUFFT operator tests: accuracy against the exact NUDFT,
// adjointness, determinism across thread counts and scheduling modes,
// component entry points, and configuration ablations.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/nudft.hpp"
#include "common/error.hpp"
#include "core/batch_fft.hpp"
#include "core/convolution_avx2.hpp"
#include "core/nufft.hpp"
#include "datasets/trajectory.hpp"
#include "test_util.hpp"

namespace nufft {
namespace {

using datasets::TrajectoryType;

// Accuracy sweep: every (dim, trajectory, W, threads, simd) combination must
// approximate the exact transform to a W-dependent tolerance.
class NufftAccuracy
    : public ::testing::TestWithParam<std::tuple<int, TrajectoryType, double, int, bool>> {};

double tolerance_for(double W) {
  // Wider kernels are more accurate; these bounds are loose enough to be
  // robust yet catch any systematic defect (wrong scaling, shift, wrap).
  if (W <= 2.0) return 5e-3;
  if (W <= 4.0) return 5e-5;
  return 5e-6;
}

TEST_P(NufftAccuracy, ForwardMatchesNudft) {
  const auto [dim, type, W, threads, simd] = GetParam();
  const index_t N = dim == 3 ? 12 : (dim == 2 ? 20 : 48);
  const GridDesc g = make_grid(dim, N, 2.0);
  const auto set = testing::small_trajectory(type, dim, N, dim == 1 ? 100 : 400);

  PlanConfig cfg;
  cfg.threads = threads;
  cfg.kernel_radius = W;
  cfg.use_simd = simd;
  Nufft plan(g, set, cfg);

  const cvecf img = testing::random_image(g.image_elems(), 17);
  cvecf raw(static_cast<std::size_t>(set.count()));
  plan.forward(img.data(), raw.data());

  ThreadPool pool(1);
  std::vector<cdouble> ref(static_cast<std::size_t>(set.count()));
  baselines::nudft_forward(g, set, img.data(), ref.data(), pool);

  EXPECT_LT(testing::rel_err(raw.data(), ref.data(), set.count()), tolerance_for(W));
}

TEST_P(NufftAccuracy, AdjointMatchesNudft) {
  const auto [dim, type, W, threads, simd] = GetParam();
  const index_t N = dim == 3 ? 10 : (dim == 2 ? 16 : 48);
  const GridDesc g = make_grid(dim, N, 2.0);
  const auto set = testing::small_trajectory(type, dim, N, dim == 1 ? 80 : 300);

  PlanConfig cfg;
  cfg.threads = threads;
  cfg.kernel_radius = W;
  cfg.use_simd = simd;
  Nufft plan(g, set, cfg);

  const cvecf raw = testing::random_raw(set.count(), 23);
  cvecf img(static_cast<std::size_t>(g.image_elems()));
  plan.adjoint(raw.data(), img.data());

  ThreadPool pool(1);
  std::vector<cdouble> ref(static_cast<std::size_t>(g.image_elems()));
  baselines::nudft_adjoint(g, set, raw.data(), ref.data(), pool);

  EXPECT_LT(testing::rel_err(img.data(), ref.data(), g.image_elems()), tolerance_for(W));
}

std::string accuracy_name(
    const ::testing::TestParamInfo<std::tuple<int, TrajectoryType, double, int, bool>>& info) {
  return "d" + std::to_string(std::get<0>(info.param)) + "_" +
         datasets::trajectory_name(std::get<1>(info.param)) + "_W" +
         std::to_string(static_cast<int>(std::get<2>(info.param))) + "_t" +
         std::to_string(std::get<3>(info.param)) +
         (std::get<4>(info.param) ? "_simd" : "_scalar");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NufftAccuracy,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(TrajectoryType::kRadial, TrajectoryType::kRandom,
                                         TrajectoryType::kSpiral),
                       ::testing::Values(2.0, 4.0), ::testing::Values(1, 4),
                       ::testing::Values(true, false)),
    accuracy_name);

// Adjointness: ⟨A x, y⟩ = ⟨x, Aᴴ y⟩ to single-precision rounding.
class NufftAdjointness : public ::testing::TestWithParam<std::tuple<int, TrajectoryType>> {};

TEST_P(NufftAdjointness, DotTestPasses) {
  const auto [dim, type] = GetParam();
  const index_t N = dim == 3 ? 12 : 24;
  const GridDesc g = make_grid(dim, N, 2.0);
  const auto set = testing::small_trajectory(type, dim, N, 500);

  PlanConfig cfg;
  cfg.threads = 3;
  Nufft plan(g, set, cfg);

  const cvecf x = testing::random_image(g.image_elems(), 5);
  const cvecf y = testing::random_raw(set.count(), 6);
  cvecf ax(static_cast<std::size_t>(set.count()));
  cvecf aty(static_cast<std::size_t>(g.image_elems()));
  plan.forward(x.data(), ax.data());
  plan.adjoint(y.data(), aty.data());

  cdouble lhs(0, 0), rhs(0, 0);
  for (index_t i = 0; i < set.count(); ++i) {
    lhs += cdouble(ax[static_cast<std::size_t>(i)].real(), ax[static_cast<std::size_t>(i)].imag()) *
           std::conj(cdouble(y[static_cast<std::size_t>(i)].real(), y[static_cast<std::size_t>(i)].imag()));
  }
  for (index_t i = 0; i < g.image_elems(); ++i) {
    rhs += cdouble(x[static_cast<std::size_t>(i)].real(), x[static_cast<std::size_t>(i)].imag()) *
           std::conj(cdouble(aty[static_cast<std::size_t>(i)].real(), aty[static_cast<std::size_t>(i)].imag()));
  }
  EXPECT_LT(std::abs(lhs - rhs) / std::abs(lhs), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Sweep, NufftAdjointness,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(TrajectoryType::kRadial,
                                                              TrajectoryType::kRandom,
                                                              TrajectoryType::kSpiral)),
                         [](const auto& info) {
                           return "d" + std::to_string(std::get<0>(info.param)) + "_" +
                                  datasets::trajectory_name(std::get<1>(info.param));
                         });

// Determinism and configuration equivalence.

TEST(NufftDeterminism, AdjointIdenticalAcrossThreadCounts) {
  // With a fixed partition layout and privatization off, the TDG imposes a
  // total order (by Gray rank) on every pair of tasks that share grid
  // cells, and each task processes its samples sequentially — so the
  // adjoint grid is bitwise reproducible for ANY thread count. (The default
  // config derives the partition count and privatization marks from the
  // thread count, which legitimately changes summation order; pin both.)
  const GridDesc g = make_grid(2, 32, 2.0);
  const auto set = testing::small_trajectory(TrajectoryType::kRadial, 2, 32, 3000);
  const cvecf raw = testing::random_raw(set.count(), 9);

  cvecf reference;
  for (int threads : {1, 2, 5, 8}) {
    PlanConfig cfg;
    cfg.threads = threads;
    cfg.partitions_per_dim = 4;
    cfg.selective_privatization = false;
    Nufft plan(g, set, cfg);
    plan.spread(raw.data());
    cvecf grid(plan.grid_data(), plan.grid_data() + g.grid_elems());
    if (reference.empty()) {
      reference = grid;
    } else {
      for (index_t i = 0; i < g.grid_elems(); ++i) {
        ASSERT_EQ(grid[static_cast<std::size_t>(i)], reference[static_cast<std::size_t>(i)])
            << "threads=" << threads << " i=" << i;
      }
    }
  }
}

TEST(NufftDeterminism, PriorityAndFifoQueuesGiveSameGrid) {
  const GridDesc g = make_grid(2, 32, 2.0);
  const auto set = testing::small_trajectory(TrajectoryType::kRandom, 2, 32, 2000);
  const cvecf raw = testing::random_raw(set.count(), 10);

  cvecf grids[2];
  for (int mode = 0; mode < 2; ++mode) {
    PlanConfig cfg;
    cfg.threads = 4;
    cfg.priority_queue = mode == 0;
    Nufft plan(g, set, cfg);
    plan.spread(raw.data());
    grids[mode].assign(plan.grid_data(), plan.grid_data() + g.grid_elems());
  }
  for (index_t i = 0; i < g.grid_elems(); ++i) {
    ASSERT_EQ(grids[0][static_cast<std::size_t>(i)], grids[1][static_cast<std::size_t>(i)]);
  }
}

TEST(NufftDeterminism, ColorBarrierScheduleMatchesTdg) {
  const GridDesc g = make_grid(2, 32, 2.0);
  const auto set = testing::small_trajectory(TrajectoryType::kRadial, 2, 32, 2500);
  const cvecf raw = testing::random_raw(set.count(), 11);

  cvecf grids[2];
  for (int mode = 0; mode < 2; ++mode) {
    PlanConfig cfg;
    cfg.threads = 4;
    cfg.color_barrier_schedule = mode == 1;
    cfg.selective_privatization = false;  // colored mode has no privatization
    Nufft plan(g, set, cfg);
    plan.spread(raw.data());
    grids[mode].assign(plan.grid_data(), plan.grid_data() + g.grid_elems());
  }
  for (index_t i = 0; i < g.grid_elems(); ++i) {
    ASSERT_EQ(grids[0][static_cast<std::size_t>(i)], grids[1][static_cast<std::size_t>(i)]);
  }
}

TEST(NufftDeterminism, PrivatizationDoesNotChangeResultBeyondRounding) {
  const GridDesc g = make_grid(2, 48, 2.0);
  const auto set = testing::small_trajectory(TrajectoryType::kRadial, 2, 48, 8000);
  const cvecf raw = testing::random_raw(set.count(), 12);

  cvecf grids[2];
  double gnorm = 0.0;
  for (int mode = 0; mode < 2; ++mode) {
    PlanConfig cfg;
    cfg.threads = 8;
    cfg.selective_privatization = mode == 1;
    cfg.privatization_factor = 0.25;  // force several privatized tasks
    Nufft plan(g, set, cfg);
    if (mode == 1) {
      EXPECT_GT(plan.plan().stats.privatized_tasks, 0)
          << "test needs at least one privatized task to be meaningful";
    }
    plan.spread(raw.data());
    grids[mode].assign(plan.grid_data(), plan.grid_data() + g.grid_elems());
    for (const auto& v : grids[mode]) gnorm += std::norm(v);
  }
  // Privatized tasks accumulate in a private buffer first, so addition
  // order differs: require agreement to rounding, not bitwise.
  const double scale = std::sqrt(gnorm / static_cast<double>(g.grid_elems()));
  EXPECT_LT(testing::max_abs_diff(grids[0].data(), grids[1].data(), g.grid_elems()),
            1e-4 * (1.0 + scale));
}

TEST(NufftComponents, SpreadTotalMassMatchesSampleMass) {
  // Σ_grid spread(raw) = Σ_p raw[p]·(Σ kernel weights) — conservation of the
  // scattered mass (grid sum equals sample sum times the kernel's mass).
  const GridDesc g = make_grid(2, 24, 2.0);
  const auto set = testing::small_trajectory(TrajectoryType::kRandom, 2, 24, 500);
  PlanConfig cfg;
  cfg.threads = 2;
  Nufft plan(g, set, cfg);
  const cvecf raw = testing::random_raw(set.count(), 13);
  plan.spread(raw.data());

  cdouble grid_sum(0, 0);
  for (index_t i = 0; i < g.grid_elems(); ++i) {
    grid_sum += cdouble(plan.grid_data()[i].real(), plan.grid_data()[i].imag());
  }
  // Kernel mass per sample varies only with the fractional offset; bound
  // the total against per-sample direct evaluation.
  const auto kernel = kernels::make_kernel(cfg.kernel, cfg.kernel_radius, g.alpha);
  cdouble expect(0, 0);
  for (index_t p = 0; p < set.count(); ++p) {
    double mass = 1.0;
    for (int d = 0; d < 2; ++d) {
      const double c = set.coords[static_cast<std::size_t>(d)][static_cast<std::size_t>(p)];
      double m1 = 0.0;
      for (index_t u = static_cast<index_t>(std::ceil(c - 4.0));
           u <= static_cast<index_t>(std::floor(c + 4.0)); ++u) {
        m1 += kernel->value(static_cast<double>(u) - c);
      }
      mass *= m1;
    }
    expect += cdouble(raw[static_cast<std::size_t>(p)].real(),
                      raw[static_cast<std::size_t>(p)].imag()) *
              mass;
  }
  EXPECT_LT(std::abs(grid_sum - expect) / std::abs(expect), 1e-4);
}

TEST(NufftComponents, InterpReadsGridWrittenExternally) {
  const GridDesc g = make_grid(1, 32, 2.0);
  const auto set = testing::small_trajectory(TrajectoryType::kSpiral, 1, 32, 64);
  PlanConfig cfg;
  Nufft plan(g, set, cfg);
  // Constant grid → every interpolated sample equals the kernel mass at its
  // fractional offset.
  plan.clear_grid();
  for (index_t i = 0; i < g.grid_elems(); ++i) plan.grid_data()[i] = cfloat(1.0f, 0.0f);
  cvecf raw(static_cast<std::size_t>(set.count()));
  plan.interp(raw.data());
  const auto kernel = kernels::make_kernel(cfg.kernel, cfg.kernel_radius, g.alpha);
  for (index_t p = 0; p < set.count(); ++p) {
    const double c = set.coords[0][static_cast<std::size_t>(p)];
    double mass = 0.0;
    for (index_t u = static_cast<index_t>(std::ceil(c - 4.0));
         u <= static_cast<index_t>(std::floor(c + 4.0)); ++u) {
      mass += kernel->value(static_cast<double>(u) - c);
    }
    ASSERT_NEAR(raw[static_cast<std::size_t>(p)].real(), mass, 1e-3);
    ASSERT_NEAR(raw[static_cast<std::size_t>(p)].imag(), 0.0, 1e-5);
  }
}

// Pruning is exact: the plan's FFT skips rows that are zero (forward) or
// never read (adjoint), so each apply equals the unpruned pipeline built
// from the component entry points and a BatchFft over every row (all-index
// wrap lists) running the plan's stage choice, bitwise — over every backend
// and two pool widths, on power-of-two grids and on one whose axes run
// Bluestein (m = 40).
TEST(NufftComponents, PrunedApplyEqualsFullFftPipelineBitwise) {
  struct Shape {
    int dim;
    index_t n;
  };
  for (const Shape sh : {Shape{1, 64}, Shape{2, 32}, Shape{3, 16}, Shape{2, 20}}) {
    const GridDesc g = make_grid(sh.dim, sh.n, 2.0);
    const auto set = testing::small_trajectory(TrajectoryType::kRandom, sh.dim, sh.n,
                                               sh.dim == 1 ? 200 : 2000);
    std::array<std::vector<index_t>, 3> all_rows;
    for (int d = 0; d < g.dim; ++d) {
      auto& rows = all_rows[static_cast<std::size_t>(d)];
      rows.resize(static_cast<std::size_t>(g.m[static_cast<std::size_t>(d)]));
      std::iota(rows.begin(), rows.end(), index_t{0});
    }
    const BatchFft full(g, all_rows);
    const cvecf img = testing::random_image(g.image_elems(), 41);
    const cvecf raw = testing::random_raw(set.count(), 42);
    for (const int backend : {0, 1, 2}) {
      if (backend == 2 && !avx2_available()) continue;
      for (const int width : {1, 3}) {
        PlanConfig cfg;
        cfg.threads = width;
        cfg.use_simd = backend != 0;
        cfg.isa = backend == 2 ? SimdIsa::kAvx2 : SimdIsa::kSse;
        Nufft plan(g, set, cfg);
        const bool stages = plan.conv_mode() != Nufft::ConvMode::kScalar;
        const std::string where = "dim " + std::to_string(sh.dim) + " m " +
                                  std::to_string(g.m[0]) + " backend " +
                                  std::to_string(backend) + " width " + std::to_string(width);

        cvecf got_raw(static_cast<std::size_t>(set.count()));
        cvecf want_raw(got_raw.size());
        plan.forward(img.data(), got_raw.data());
        plan.image_to_grid(img.data());
        full.transform(plan.grid_data(), 1, fft::Direction::kForward, plan.pool(), stages);
        plan.interp(want_raw.data());
        EXPECT_EQ(std::memcmp(got_raw.data(), want_raw.data(), got_raw.size() * sizeof(cfloat)), 0)
            << "forward, " << where;

        cvecf got_img(static_cast<std::size_t>(g.image_elems()));
        cvecf want_img(got_img.size());
        plan.adjoint(raw.data(), got_img.data());
        plan.spread(raw.data());
        full.transform(plan.grid_data(), 1, fft::Direction::kInverse, plan.pool(), stages);
        plan.grid_to_image(want_img.data());
        EXPECT_EQ(std::memcmp(got_img.data(), want_img.data(), got_img.size() * sizeof(cfloat)), 0)
            << "adjoint, " << where;
      }
    }
  }
}

TEST(NufftConfig, GaussianKernelAlsoAccurate) {
  const GridDesc g = make_grid(2, 20, 2.0);
  const auto set = testing::small_trajectory(TrajectoryType::kRandom, 2, 20, 300);
  PlanConfig cfg;
  cfg.kernel = kernels::KernelType::kGaussian;
  cfg.kernel_radius = 4.0;
  Nufft plan(g, set, cfg);
  const cvecf img = testing::random_image(g.image_elems(), 19);
  cvecf raw(static_cast<std::size_t>(set.count()));
  plan.forward(img.data(), raw.data());
  ThreadPool pool(1);
  std::vector<cdouble> ref(static_cast<std::size_t>(set.count()));
  baselines::nudft_forward(g, set, img.data(), ref.data(), pool);
  // Gaussian is less accurate than Kaiser-Bessel at equal W — that is the
  // point of the paper's kernel choice; assert a looser bound.
  EXPECT_LT(testing::rel_err(raw.data(), ref.data(), set.count()), 2e-3);
}

TEST(NufftConfig, SmallerOversamplingStillWorks) {
  const GridDesc g = make_grid(2, 32, 1.25);
  datasets::TrajectoryParams tp;
  tp.n = 32;
  tp.k = 16;
  tp.s = 25;
  tp.alpha = 1.25;
  const auto set = datasets::make_trajectory(TrajectoryType::kRandom, 2, tp);
  PlanConfig cfg;
  cfg.kernel_radius = 4.0;
  Nufft plan(g, set, cfg);
  const cvecf img = testing::random_image(g.image_elems(), 21);
  cvecf raw(static_cast<std::size_t>(set.count()));
  plan.forward(img.data(), raw.data());
  ThreadPool pool(1);
  std::vector<cdouble> ref(static_cast<std::size_t>(set.count()));
  baselines::nudft_forward(g, set, img.data(), ref.data(), pool);
  // α = 1.25 with the Beatty β still delivers usable accuracy (paper §II-B).
  EXPECT_LT(testing::rel_err(raw.data(), ref.data(), set.count()), 5e-3);
}

TEST(NufftConfig, StatsBreakdownSumsToTotal) {
  const GridDesc g = make_grid(2, 32, 2.0);
  const auto set = testing::small_trajectory(TrajectoryType::kRadial, 2, 32, 1000);
  PlanConfig cfg;
  cfg.threads = 2;
  Nufft plan(g, set, cfg);
  const cvecf img = testing::random_image(g.image_elems(), 3);
  cvecf raw(static_cast<std::size_t>(set.count()));
  plan.forward(img.data(), raw.data());
  const auto& s = plan.last_forward_stats();
  EXPECT_GT(s.total_s, 0.0);
  EXPECT_LE(s.scale_s + s.fft_s + s.conv_s, s.total_s * 1.05 + 1e-3);

  cvecf img2(static_cast<std::size_t>(g.image_elems()));
  plan.adjoint(raw.data(), img2.data());
  const auto& a = plan.last_adjoint_stats();
  EXPECT_GT(a.total_s, 0.0);
  EXPECT_GT(a.tasks, 0);
}

TEST(NufftConfig, RejectsMismatchedSampleSet) {
  const GridDesc g = make_grid(2, 32, 2.0);
  const auto set = testing::small_trajectory(TrajectoryType::kRadial, 2, 16, 100);  // M=32≠64
  PlanConfig cfg;
  EXPECT_THROW(Nufft(g, set, cfg), Error);
}

TEST(NufftConfig, RejectsDimensionMismatch) {
  const GridDesc g = make_grid(3, 16, 2.0);
  const auto set = testing::small_trajectory(TrajectoryType::kRadial, 2, 16, 100);
  PlanConfig cfg;
  EXPECT_THROW(Nufft(g, set, cfg), Error);
}

// --- Input validation at plan construction ---------------------------------

ErrorCode plan_error_code(const GridDesc& g, const datasets::SampleSet& set) {
  PlanConfig cfg;
  try {
    Nufft plan(g, set, cfg);
  } catch (const Error& e) {
    return e.code();
  }
  ADD_FAILURE() << "plan construction unexpectedly succeeded";
  return ErrorCode::kInternal;
}

TEST(NufftValidation, RejectsNonFiniteAndOutOfRangeCoordinates) {
  const GridDesc g = make_grid(2, 32, 2.0);
  const auto good = testing::small_trajectory(TrajectoryType::kRadial, 2, 32, 100);
  // A NaN, an infinity, a negative coordinate, or one at exactly M would all
  // corrupt the preprocessing histogram; each must be rejected up front with
  // the caller-facing code.
  for (const float w : {std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity(), -0.5f,
                        static_cast<float>(good.m)}) {
    datasets::SampleSet bad = good;
    bad.coords[1][7] = w;
    EXPECT_EQ(plan_error_code(g, bad), ErrorCode::kInvalidInput) << "coordinate " << w;
  }
}

TEST(NufftValidation, EmptySampleSetIsTheEmptyOperator) {
  // Zero samples is valid input (a batch job may submit an empty
  // interleave): the plan builds, runs the full scheduler path over its
  // (sample-free) tasks, the forward writes nothing, and the adjoint
  // produces an exactly zero image.
  const GridDesc g = make_grid(2, 32, 2.0);
  datasets::SampleSet empty;
  empty.dim = 2;
  empty.m = 64;
  empty.k = 0;
  empty.s = 0;
  PlanConfig cfg;
  cfg.threads = 2;
  Nufft plan(g, empty, cfg);
  EXPECT_EQ(plan.sample_count(), 0);
  EXPECT_GT(plan.plan().stats.tasks, 0);

  const cvecf img = testing::random_image(g.image_elems(), 41);
  plan.forward(img.data(), nullptr);  // no samples: raw is never touched

  cvecf back(static_cast<std::size_t>(g.image_elems()), cfloat(1.0f, 1.0f));
  plan.adjoint(nullptr, back.data());
  for (const cfloat v : back) ASSERT_EQ(v, cfloat(0.0f, 0.0f));
  // The scheduler ran real (sample-free) tasks; the busy clock may or may
  // not resolve them, so any sentinel (0.0 unmeasurable, 1.0 trivially
  // balanced) or a genuine ratio ≥ 1 is acceptable — but never NaN.
  const double li = plan.last_adjoint_stats().load_imbalance();
  ASSERT_FALSE(std::isnan(li));
  EXPECT_TRUE(li == 0.0 || li >= 1.0);
}

TEST(NufftValidation, RejectsNegativeSampleCount) {
  const GridDesc g = make_grid(2, 32, 2.0);
  datasets::SampleSet bad;
  bad.dim = 2;
  bad.m = 64;
  bad.k = -4;
  bad.s = 1;
  EXPECT_EQ(plan_error_code(g, bad), ErrorCode::kInvalidInput);
}

// The apply driver writes through the caller's workspace, so it must reject
// one that cannot hold a chunk of this plan before touching it: a default
// Workspace (no grid), one made by a smaller plan, and one whose capacity
// exceeds kMaxBatch (the convolution's per-sample staging bound).
TEST(NufftValidation, RejectsWorkspacesThatCannotHoldAChunk) {
  const GridDesc g = make_grid(2, 16, 2.0);
  const Nufft plan(g, testing::small_trajectory(TrajectoryType::kRandom, 2, 16, 300),
                   PlanConfig{});
  const Nufft small(make_grid(2, 8, 2.0),
                    testing::small_trajectory(TrajectoryType::kRandom, 2, 8, 100), PlanConfig{});
  Workspace oversized = plan.make_workspace(16);
  oversized.capacity = 20;
  oversized.grid.resize(static_cast<std::size_t>(20 * g.grid_elems()));
  std::vector<std::pair<std::string, Workspace>> cases;
  cases.emplace_back("default-constructed", Workspace{});
  cases.emplace_back("made by an N = 8 plan", small.make_workspace());
  cases.emplace_back("capacity 20", std::move(oversized));

  constexpr index_t kSlices = 20;
  const cvecf img = testing::random_image(g.image_elems(), 3);
  const cvecf raw = testing::random_raw(plan.sample_count(), 4);
  std::vector<cvecf> raws_out(kSlices, cvecf(static_cast<std::size_t>(plan.sample_count())));
  std::vector<cvecf> imgs_out(kSlices, cvecf(static_cast<std::size_t>(g.image_elems())));
  std::vector<const cfloat*> imgs_in(kSlices, img.data()), raws_in(kSlices, raw.data());
  std::vector<cfloat*> raw_ptrs, img_ptrs;
  for (index_t b = 0; b < kSlices; ++b) {
    raw_ptrs.push_back(raws_out[static_cast<std::size_t>(b)].data());
    img_ptrs.push_back(imgs_out[static_cast<std::size_t>(b)].data());
  }
  ThreadPool pool(1);
  const auto code_of = [](auto&& apply) {
    try {
      apply();
    } catch (const Error& e) {
      return e.code();
    }
    return ErrorCode::kInternal;
  };
  for (auto& [what, ws] : cases) {
    EXPECT_EQ(code_of([&] { plan.forward(imgs_in.data(), raw_ptrs.data(), kSlices, ws, pool); }),
              ErrorCode::kInvalidInput)
        << "forward, " << what;
    EXPECT_EQ(code_of([&] { plan.adjoint(raws_in.data(), img_ptrs.data(), kSlices, ws, pool); }),
              ErrorCode::kInvalidInput)
        << "adjoint, " << what;
  }
}

TEST(NufftValidation, RejectsGridNarrowerThanKernelFootprint) {
  // 2⌈W⌉+1 > m: one sample's window would cover the grid more than once.
  // Plan construction must reject it — on the fresh path (via preprocess)
  // AND on the restored-plan path, which skips preprocess entirely.
  GridDesc g;
  g.dim = 1;
  g.n = {4, 0, 0};
  g.m = {7, 1, 1};  // footprint for W=4 is 9 > 7
  g.alpha = 7.0 / 4.0;
  datasets::SampleSet set;
  set.dim = 1;
  set.m = 7;
  set.k = 3;
  set.s = 1;
  set.coords[0] = {0.5f, 3.0f, 6.25f};
  EXPECT_EQ(plan_error_code(g, set), ErrorCode::kInvalidInput);

  // Restored path: hand the constructor a preprocessing result built on a
  // wide-enough grid, then shrink the grid — the footprint check must fire
  // before any convolution can run.
  GridDesc gbig = g;
  gbig.m = {9, 1, 1};
  datasets::SampleSet sbig = set;
  sbig.m = 9;
  PlanConfig cfg;
  Preprocessed pp = preprocess(gbig, sbig, cfg);
  try {
    Nufft plan(g, set, cfg, std::move(pp));
    ADD_FAILURE() << "restored-plan construction unexpectedly succeeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
  }
}

TEST(NufftValidation, RejectsMismatchedCoordinateArray) {
  const GridDesc g = make_grid(2, 32, 2.0);
  datasets::SampleSet bad = testing::small_trajectory(TrajectoryType::kRadial, 2, 32, 100);
  bad.coords[1].pop_back();
  EXPECT_EQ(plan_error_code(g, bad), ErrorCode::kInvalidInput);
}

TEST(NufftValidation, BoundaryCoordinatesAreValid) {
  // 0 and nextafter(M, 0) are the edges of the half-open coordinate interval;
  // both must plan and transform.
  const GridDesc g = make_grid(2, 16, 2.0);
  datasets::SampleSet set = testing::small_trajectory(TrajectoryType::kRadial, 2, 16, 64);
  const float edge = std::nextafter(static_cast<float>(set.m), 0.0f);
  set.coords[0][0] = 0.0f;
  set.coords[1][0] = edge;
  set.coords[0][1] = edge;
  set.coords[1][1] = 0.0f;
  PlanConfig cfg;
  Nufft plan(g, set, cfg);
  const cvecf img = testing::random_image(g.image_elems(), 7);
  cvecf raw(static_cast<std::size_t>(set.count()));
  plan.forward(img.data(), raw.data());
  for (const cfloat v : raw) {
    ASSERT_TRUE(std::isfinite(v.real()) && std::isfinite(v.imag()));
  }
}

TEST(NufftValidation, AllSamplesInOneCellStillTransform) {
  // A degenerate trajectory collapses the preprocessing histogram into a
  // single bin; partitioning and task-graph construction must still produce
  // a working plan. With identical coordinates every forward output is the
  // same value.
  const GridDesc g = make_grid(2, 16, 2.0);
  datasets::SampleSet set = testing::small_trajectory(TrajectoryType::kRadial, 2, 16, 64);
  for (auto& c : set.coords[0]) c = 7.25f;
  for (auto& c : set.coords[1]) c = 9.5f;
  PlanConfig cfg;
  cfg.threads = 2;
  Nufft plan(g, set, cfg);
  const cvecf img = testing::random_image(g.image_elems(), 11);
  cvecf raw(static_cast<std::size_t>(set.count()));
  plan.forward(img.data(), raw.data());
  for (index_t i = 1; i < set.count(); ++i) {
    ASSERT_EQ(raw[static_cast<std::size_t>(i)], raw[0]) << "sample " << i;
  }
  cvecf back(static_cast<std::size_t>(g.image_elems()));
  plan.adjoint(raw.data(), back.data());
  for (const cfloat v : back) {
    ASSERT_TRUE(std::isfinite(v.real()) && std::isfinite(v.imag()));
  }
}

TEST(NufftRoundTrip, AdjointOfForwardPreservesImageShape) {
  // AᴴA is approximately a (dataset-dependent) positive operator; the image
  // energy must survive a round trip and correlate strongly with the input
  // for dense sampling.
  const GridDesc g = make_grid(2, 24, 2.0);
  const auto set = testing::small_trajectory(TrajectoryType::kRandom, 2, 24, 4000);
  PlanConfig cfg;
  cfg.threads = 2;
  Nufft plan(g, set, cfg);
  const cvecf img = testing::random_image(g.image_elems(), 33);
  cvecf raw(static_cast<std::size_t>(set.count()));
  cvecf back(static_cast<std::size_t>(g.image_elems()));
  plan.forward(img.data(), raw.data());
  plan.adjoint(raw.data(), back.data());
  cdouble corr(0, 0);
  double n1 = 0, n2 = 0;
  for (index_t i = 0; i < g.image_elems(); ++i) {
    const cdouble a(img[static_cast<std::size_t>(i)].real(), img[static_cast<std::size_t>(i)].imag());
    const cdouble b(back[static_cast<std::size_t>(i)].real(), back[static_cast<std::size_t>(i)].imag());
    corr += a * std::conj(b);
    n1 += std::norm(a);
    n2 += std::norm(b);
  }
  EXPECT_GT(std::abs(corr) / std::sqrt(n1 * n2), 0.5);
}

}  // namespace
}  // namespace nufft
