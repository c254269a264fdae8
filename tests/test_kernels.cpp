// Tests for the interpolation kernels, Bessel I0, LUT, the Horner fits and
// their evaluators, the sample loop's window block (Part 1 across SSE
// lanes) against the per-sample path, the tolerance table, and rolloff maps.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <iterator>
#include <set>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "core/grid.hpp"
#include "core/preprocess.hpp"
#include "core/tolerance.hpp"
#include "core/window_span.hpp"
#include "kernels/bessel.hpp"
#include "kernels/es_kernel.hpp"
#include "kernels/gaussian.hpp"
#include "kernels/horner.hpp"
#include "kernels/kaiser_bessel.hpp"
#include "kernels/lut.hpp"
#include "kernels/rolloff.hpp"

namespace nufft::kernels {
namespace {

TEST(Bessel, KnownValues) {
  // Reference values from Abramowitz & Stegun / SciPy.
  EXPECT_NEAR(bessel_i0(0.0), 1.0, 1e-15);
  EXPECT_NEAR(bessel_i0(1.0), 1.2660658777520082, 1e-12);
  EXPECT_NEAR(bessel_i0(2.5), 3.2898391440501231, 1e-12);
  EXPECT_NEAR(bessel_i0(5.0), 27.239871823604442, 1e-10);
  EXPECT_NEAR(bessel_i0(10.0) / 2815.7166284662558, 1.0, 1e-12);
  EXPECT_NEAR(bessel_i0(20.0) / 4.355828255955355e7, 1.0, 1e-12);
}

TEST(Bessel, AsymptoticMatchesHighPrecisionReferences) {
  // References computed with 60-digit decimal arithmetic from the
  // all-positive-term power series (so no cancellation in the reference
  // itself). The set straddles the series/asymptotic crossover at x = 50.
  struct Ref {
    double x, i0;
  };
  constexpr Ref kRefs[] = {
      {10.0, 2.81571662846625441e+03},  {25.0, 5.77456060646631050e+09},
      {45.0, 2.08341407517731482e+18},  {49.5, 1.78769054175389778e+20},
      {50.0, 2.93255378384933618e+20},  {50.5, 4.81084726658070544e+20},
      {60.0, 5.89407705560980121e+24},  {80.0, 2.47517840433417042e+33},
      {100.0, 1.07375170713107380e+42}, {150.0, 4.54359746627057885e+63},
      {200.0, 2.03968717340972447e+85},
  };
  for (const auto& r : kRefs) {
    EXPECT_NEAR(bessel_i0(r.x) / r.i0, 1.0, 1e-13) << "x=" << r.x;
  }
}

TEST(Bessel, ContinuousAcrossAsymptoticCrossover) {
  // The series→asymptotic switch at x = 50 must not introduce a jump: with
  // I0'(x) ≈ I0(x) at large x, evaluations h apart differ by ≈ 2h·I0, and
  // any branch mismatch would show up far above that.
  const double h = 1e-9;
  const double below = bessel_i0(50.0 - h);
  const double above = bessel_i0(50.0 + h);
  EXPECT_NEAR(above / below, 1.0, 1e-8);
}

TEST(Bessel, MonotoneIncreasing) {
  double prev = bessel_i0(0.0);
  for (double x = 0.5; x < 40.0; x += 0.5) {
    const double v = bessel_i0(x);
    ASSERT_GT(v, prev);
    prev = v;
  }
}

TEST(KaiserBessel, BeattyBetaFormula) {
  // β = π·sqrt((L/α)²(α−0.5)² − 0.8), L = 2W.
  const double W = 4.0, alpha = 2.0;
  const double expect = kPi * std::sqrt(std::pow(8.0 / 2.0, 2) * 2.25 - 0.8);
  EXPECT_NEAR(KaiserBessel::beatty_beta(W, alpha), expect, 1e-12);
}

TEST(KaiserBessel, BetaGrowsWithW) {
  double prev = 0.0;
  for (double W : {1.5, 2.0, 4.0, 6.0, 8.0}) {
    const double b = KaiserBessel::beatty_beta(W, 2.0);
    ASSERT_GT(b, prev);
    prev = b;
  }
}

TEST(KaiserBessel, PeakAtZeroAndNormalized) {
  const auto kb = KaiserBessel::with_beatty_beta(4.0, 2.0);
  EXPECT_NEAR(kb.value(0.0), 1.0, 1e-12);
  for (double d = 0.25; d <= 4.0; d += 0.25) {
    ASSERT_LT(kb.value(d), kb.value(d - 0.25));
  }
}

TEST(KaiserBessel, EvenFunction) {
  const auto kb = KaiserBessel::with_beatty_beta(3.0, 2.0);
  for (double d = 0.0; d <= 3.0; d += 0.1) {
    ASSERT_EQ(kb.value(d), kb.value(-d));
  }
}

TEST(KaiserBessel, CompactSupport) {
  const auto kb = KaiserBessel::with_beatty_beta(2.0, 2.0);
  EXPECT_EQ(kb.value(2.0001), 0.0);
  EXPECT_EQ(kb.value(-5.0), 0.0);
  EXPECT_GT(kb.value(1.9999), 0.0);
}

TEST(KaiserBessel, FourierTransformContinuity) {
  // fourier_at must be smooth across the sinh→sin transition t = β.
  const auto kb = KaiserBessel::with_beatty_beta(4.0, 2.0);
  const double M = 128.0;
  // Find n where the argument crosses β.
  const double n_cross = kb.beta() * M / (kTwoPi * 4.0);
  const double below = kb.fourier_at(n_cross - 0.01, M);
  const double above = kb.fourier_at(n_cross + 0.01, M);
  // The crossing sits at a near-zero of the transform; bound the jump
  // relative to the DC peak, not to the tiny local value.
  EXPECT_NEAR(below, above, 1e-6 * kb.fourier_at(0.0, M));
}

TEST(KaiserBessel, FourierPeakAtDc) {
  const auto kb = KaiserBessel::with_beatty_beta(4.0, 2.0);
  const double dc = kb.fourier_at(0.0, 256.0);
  for (double n : {10.0, 40.0, 64.0, 100.0}) {
    ASSERT_LT(std::abs(kb.fourier_at(n, 256.0)), dc);
  }
}

TEST(Gaussian, PeakAndSupport) {
  const auto gk = GaussianKernel::with_gl_tau(4.0, 2.0);
  EXPECT_NEAR(gk.value(0.0), 1.0, 1e-12);
  EXPECT_EQ(gk.value(4.5), 0.0);
  EXPECT_GT(gk.value(1.0), gk.value(2.0));
}

TEST(Gaussian, EvenFunction) {
  const auto gk = GaussianKernel::with_gl_tau(3.0, 2.0);
  for (double d = 0.0; d <= 3.0; d += 0.3) ASSERT_EQ(gk.value(d), gk.value(-d));
}

TEST(KernelFactory, ProducesRequestedTypes) {
  const auto kb = make_kernel(KernelType::kKaiserBessel, 4.0, 2.0);
  const auto gs = make_kernel(KernelType::kGaussian, 4.0, 2.0);
  EXPECT_NE(kb->name().find("KaiserBessel"), std::string::npos);
  EXPECT_NE(gs->name().find("Gaussian"), std::string::npos);
  EXPECT_EQ(kb->radius(), 4.0);
  EXPECT_EQ(gs->radius(), 4.0);
}

// ---- exponential-of-semicircle ----

TEST(EsKernel, PeakEvennessAndSupport) {
  const EsKernel es(2.0, 2.0);
  EXPECT_NEAR(es.value(0.0), 1.0, 1e-15);
  EXPECT_EQ(es.value(2.0001), 0.0);
  EXPECT_EQ(es.value(-7.0), 0.0);
  EXPECT_GT(es.value(1.9999), 0.0);
  for (double d = 0.0; d <= 2.0; d += 0.13) {
    ASSERT_EQ(es.value(d), es.value(-d));
    if (d > 0.13) {
      ASSERT_LT(es.value(d), es.value(d - 0.13));
    }
  }
}

TEST(EsKernel, BetaMatchesFinufftParameterization) {
  // β = 2W · 0.97π · (1 − 1/(2α)).
  for (double W : {1.5, 2.0, 3.0, 4.0}) {
    const double expect = 2.0 * W * 0.97 * kPi * (1.0 - 1.0 / 4.0);
    EXPECT_NEAR(EsKernel::es_beta(W, 2.0), expect, 1e-12) << "W=" << W;
    EXPECT_NEAR(EsKernel(W, 2.0).beta(), expect, 1e-12) << "W=" << W;
  }
}

TEST(EsKernel, ValueMatchesClosedForm) {
  const EsKernel es(3.0, 2.0);
  const double beta = es.beta();
  for (double d = 0.0; d < 3.0; d += 0.07) {
    const double expect = std::exp(beta * (std::sqrt(1.0 - (d / 3.0) * (d / 3.0)) - 1.0));
    ASSERT_NEAR(es.value(d), expect, 1e-15) << "d=" << d;
  }
}

TEST(EsKernel, RolloffFourierMatchesDenseQuadrature) {
  // The cached 64-node Gauss–Legendre transform must agree with an
  // independent dense Simpson integration of 2·∫₀^W φ(d)·cos(2πnd/M) dd.
  const double W = 2.0, M = 128.0;
  const EsKernel es(W, 2.0);
  const int S = 20000;  // Simpson panels (even)
  for (double n : {0.0, 1.0, 8.0, 31.0, 64.0}) {
    const double h = W / S;
    double acc = 0.0;
    for (int i = 0; i <= S; ++i) {
      const double d = i * h;
      const double f = es.value(d) * std::cos(kTwoPi * n * d / M);
      const double w = (i == 0 || i == S) ? 1.0 : (i % 2 ? 4.0 : 2.0);
      acc += w * f;
    }
    const double dense = 2.0 * acc * h / 3.0;
    const double dc = es.rolloff_fourier(0.0, M);
    // The integrand's one-sided sqrt singularity at d = W limits both rules'
    // agreement to ~1e-9 — orders of magnitude below the tightest (1e-6)
    // calibrated tolerance the deapodization serves.
    ASSERT_NEAR(es.rolloff_fourier(n, M) / dc, dense / dc, 1e-7) << "n=" << n;
  }
}

TEST(KernelFactory, ProducesEsKernel) {
  const auto es = make_kernel(KernelType::kEs, 2.0, 2.0);
  EXPECT_NE(es->name().find("es"), std::string::npos);
  EXPECT_EQ(es->radius(), 2.0);
  // The virtual rolloff hook: ES has a quadrature transform, KB and
  // Gaussian report no-analytic (NaN sentinel) and keep the discrete path.
  EXPECT_TRUE(std::isfinite(es->rolloff_fourier(0.0, 64.0)));
  const auto kb = make_kernel(KernelType::kKaiserBessel, 2.0, 2.0);
  EXPECT_FALSE(std::isfinite(kb->rolloff_fourier(0.0, 64.0)));
}

// ---- piecewise-Horner evaluation ----

class HornerFit : public ::testing::TestWithParam<double> {};

TEST_P(HornerFit, MatchesEsKernelValues) {
  const double W = GetParam();
  const EsKernel es(W, 2.0);
  const KernelHorner h(es);
  double max_err = 0.0;
  for (double d = -W; d <= W; d += W / 1777.0) {
    max_err = std::max(max_err, std::abs(static_cast<double>(h(static_cast<float>(d))) -
                                         es.value(d)));
  }
  // φ has a sqrt singularity at |d| = W, so the polynomial misfit there
  // bottoms out at a fraction of the edge value exp(−β) — which is the
  // truncation-error scale the β tuning already commits the kernel to.
  // Away from the edge the fit sits at the float round-off floor (2e-6).
  EXPECT_LT(max_err, 2e-6 + 0.7 * std::exp(-es.beta())) << "W=" << W;
}

TEST_P(HornerFit, MatchesKaiserBesselValues) {
  const double W = GetParam();
  const auto kb = KaiserBessel::with_beatty_beta(W, 2.0);
  const KernelHorner h(kb);
  double max_err = 0.0;
  for (double d = -W; d <= W; d += W / 1777.0) {
    max_err = std::max(max_err, std::abs(static_cast<double>(h(static_cast<float>(d))) -
                                         kb.value(d)));
  }
  EXPECT_LT(max_err, 2e-6) << "W=" << W;
}

TEST_P(HornerFit, WindowBatchAgreesWithScalarPath) {
  const double W = GetParam();
  const EsKernel es(W, 2.0);
  const KernelHorner h(es);
  float win[64];
  for (double z = 0.0; z < 1.0; z += 0.0625) {
    // The length the convolution actually requests: neighbours of a sample
    // at k = x1 + W − z are x1..floor(k + W), i.e. floor(2W − z) + 1 slots.
    // (Trailing segments beyond that are never read.)
    const int len = static_cast<int>(std::floor(2.0 * W - z)) + 1;
    ASSERT_LE(len, h.segments());
    h.eval_window(static_cast<float>(z), len, win);
    for (int i = 0; i < len; ++i) {
      const double d = z - W + i;
      const double expect = (std::abs(d) <= W) ? es.value(d) : 0.0;
      // Same edge-singularity floor as MatchesEsKernelValues: window slots
      // landing exactly on |d| = W carry the sqrt-point misfit.
      ASSERT_NEAR(static_cast<double>(win[i]), expect, 2e-6 + 0.7 * std::exp(-es.beta()))
          << "W=" << W << " z=" << z << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, HornerFit, ::testing::Values(1.5, 2.0, 2.5, 3.0, 4.0),
                         [](const auto& info) {
                           return "W" + std::to_string(static_cast<int>(info.param * 10));
                         });

TEST(Horner, ZeroOutsideSupport) {
  const EsKernel es(2.0, 2.0);
  const KernelHorner h(es);
  EXPECT_EQ(h(2.5f), 0.0f);
  EXPECT_EQ(h(-9.0f), 0.0f);
}

/// Segment i of the plain float recurrence: acc = c₀, then acc·t + c_k per
/// degree step, a multiply and then an add (this TU is built at the baseline
/// ISA, so the pair never fuses into FMA).
float scalar_recurrence(const KernelHorner& h, float z, int i) {
  z = z < 0.0f ? 0.0f : (z > 1.0f ? 1.0f : z);
  const float t = 2.0f * z - 1.0f;
  const float* c = h.coefficients();
  const auto stride = static_cast<std::size_t>(h.stride());
  float acc = c[i];
  for (int k = 1; k <= h.degree(); ++k) {
    const float p = acc * t;
    acc = p + c[static_cast<std::size_t>(k) * stride + static_cast<std::size_t>(i)];
  }
  return acc;
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof(float)) == 0; }

/// The sample loop's window block (constexpr W) on a 1-D grid, at
/// coordinates whose shared abscissa z walks a 1/64 grid, four per block.
template <int W2>
void expect_window_block_rows(int degree) {
  const float W = static_cast<float>(W2) * 0.5f;
  const EsKernel es(W, 2.0);
  const KernelHorner h(es, degree);
  const GridDesc g = make_grid(1, 64, 2.0);
  WindowEval ev;
  ev.horner = &h;
  std::vector<float> ks;
  for (int j = 0; j < 64; ++j) ks.push_back(40.0f + static_cast<float>(j) / 64.0f);
  for (int j = 0; j < 64; j += detail::kBlockLanes) {
    WindowBuf wbs[detail::kBlockLanes];
    detail::window_block<1, W2, true>(g, ev, {ks.data(), nullptr, nullptr}, j,
                                      detail::kBlockLanes, false, wbs);
    for (int l = 0; l < detail::kBlockLanes; ++l) {
      const float k = ks[static_cast<std::size_t>(j + l)];
      const WindowSpan sp = window_span(k, W);
      const float z = static_cast<float>(sp.x1) - k + W;
      ASSERT_EQ(wbs[l].len[0], sp.len);
      for (int i = 0; i < sp.len; ++i) {
        ASSERT_TRUE(same_bits(wbs[l].win[0][i], scalar_recurrence(h, z, i)))
            << "W2=" << W2 << " degree=" << h.degree() << " k=" << k << " i=" << i;
      }
    }
  }
}

TEST(Horner, RowsMatchScalarRecurrenceBitwise) {
  // Both Horner evaluators — KernelHorner::eval_window (the per-sample row,
  // lanes = segments) and the sample loop's constexpr-W window block (lanes
  // = samples) — equal the scalar recurrence bitwise: every z on a 1/64
  // grid, plus the two clamps and every len for eval_window, which must not
  // write past len.
  std::set<int> strides;
  std::vector<float> zs{-0.25f, 1.25f};
  for (int j = 0; j <= 64; ++j) zs.push_back(static_cast<float>(j) / 64.0f);
  constexpr float kUntouched = -7.0f;
  for (int w2 = 3; w2 <= 19; ++w2) {
    const EsKernel es(0.5 * w2, 2.0);
    for (const int degree : {0, 1, 16}) {
      const KernelHorner h(es, degree);
      strides.insert(h.stride());
      for (const float z : zs) {
        for (int len = 0; len <= h.segments(); ++len) {
          float out[KernelHorner::kMaxStride];
          std::fill(std::begin(out), std::end(out), kUntouched);
          h.eval_window(z, len, out);
          for (int i = 0; i < KernelHorner::kMaxStride; ++i) {
            const float want = i < len ? scalar_recurrence(h, z, i) : kUntouched;
            ASSERT_TRUE(same_bits(out[i], want))
                << "W=" << 0.5 * w2 << " degree=" << h.degree() << " z=" << z
                << " len=" << len << " i=" << i << ": got " << out[i] << ", want " << want;
          }
        }
      }
    }
  }
  EXPECT_EQ(strides, (std::set<int>{8, 16, 24}));

#if !defined(NDEBUG) || defined(NUFFT_DEBUG_ASSERTS)
  // Debug and sanitizer builds reject a len past the row before the copy.
  const KernelHorner h2(EsKernel(2.0, 2.0));
  float out[KernelHorner::kMaxStride];
  EXPECT_THROW(h2.eval_window(0.5f, h2.segments() + 1, out), Error);
  EXPECT_THROW(h2.eval_window(0.5f, -1, out), Error);
#endif

  for (const int degree : {0, 1, 16}) {
    expect_window_block_rows<4>(degree);
    expect_window_block_rows<5>(degree);
    expect_window_block_rows<6>(degree);
    expect_window_block_rows<7>(degree);
    expect_window_block_rows<8>(degree);
  }
}

TEST(Horner, RejectsNonHalfIntegerWidth) {
  const GaussianKernel g(1.7, 2.0);
  EXPECT_THROW(KernelHorner h(g), Error);
}

// ---- the sample loop's window block ----

/// Coordinates where Part 1 is most fragile on an m-cell axis: a 1/64 grid
/// over [0, m) (so windows wrap at both ends), 0 and the last float below
/// m, and every integer and half-integer with its ±1-ulp neighbours — where
/// the k ± W rounding trim admits or rejects an edge neighbour.
std::vector<float> block_coordinates(index_t m) {
  const auto mf = static_cast<float>(m);
  std::vector<float> v{0.0f, std::nextafterf(mf, 0.0f)};
  for (index_t j = 0; j < 64 * m; ++j) v.push_back(static_cast<float>(j) / 64.0f);
  for (index_t i = 0; i < m; ++i) {
    for (const float c : {static_cast<float>(i), static_cast<float>(i) + 0.5f}) {
      v.push_back(c);
      if (c > 0.0f) v.push_back(std::nextafterf(c, 0.0f));
      v.push_back(std::nextafterf(c, mf));
    }
  }
  return v;
}

/// Every field Part 2 reads: start, len, and up to len the indices and
/// weights of each dimension, inner_contiguous, and with `dup` the
/// duplicated last-dimension weights.
void expect_same_window(const WindowBuf& got, const WindowBuf& want, int dim, bool dup) {
  for (int d = 0; d < dim; ++d) {
    ASSERT_EQ(got.start[d], want.start[d]) << "d=" << d;
    ASSERT_EQ(got.len[d], want.len[d]) << "d=" << d;
    for (int i = 0; i < want.len[d]; ++i) {
      ASSERT_EQ(got.idx[d][i], want.idx[d][i]) << "d=" << d << " i=" << i;
      ASSERT_TRUE(same_bits(got.win[d][i], want.win[d][i]))
          << "d=" << d << " i=" << i << ": got " << got.win[d][i] << ", want " << want.win[d][i];
    }
  }
  ASSERT_EQ(got.inner_contiguous, want.inner_contiguous);
  for (int i = 0; dup && i < 2 * want.len[dim - 1]; ++i) {
    ASSERT_TRUE(same_bits(got.win_dup[i], want.win_dup[i])) << "win_dup i=" << i;
  }
}

/// The block against compute_window (the per-sample reference) on every
/// coordinate of block_coordinates, each dimension walking the list from
/// its own offset, in blocks of 1, 2, 3 and 4 valid lanes.
template <int DIM, int W2, bool HORNER>
void expect_block_matches_spec(const WindowEval& ev) {
  const GridDesc g = make_grid(DIM, 16, 2.0);  // m = 32 holds the W = 9.5 window
  const std::vector<float> axis = block_coordinates(g.m[0]);
  const auto n = static_cast<index_t>(axis.size());
  for (int lanes = 1; lanes <= detail::kBlockLanes; ++lanes) {
    // Exactly `count` floats per axis, ending on a full block of `lanes`: a
    // block that read past its last valid lane would leave the allocation,
    // which the ASan sweep reports.
    const index_t count = n - n % lanes;
    std::array<std::vector<float>, 3> coords;
    std::array<const float*, 3> c{nullptr, nullptr, nullptr};
    for (int d = 0; d < DIM; ++d) {
      auto& axis_d = coords[static_cast<std::size_t>(d)];
      axis_d.resize(static_cast<std::size_t>(count));
      for (index_t i = 0; i < count; ++i) {
        axis_d[static_cast<std::size_t>(i)] = axis[static_cast<std::size_t>((i + d * n / 3) % n)];
      }
      c[static_cast<std::size_t>(d)] = axis_d.data();
    }
    for (const bool dup : {false, true}) {
      for (index_t first = 0; first < count; first += lanes) {
        WindowBuf got[detail::kBlockLanes];
        std::memset(static_cast<void*>(got), 0xff, sizeof(got));
        detail::window_block<DIM, W2, HORNER>(g, ev, c, first, lanes, dup, got);
        for (int l = 0; l < lanes; ++l) {
          float k[3] = {0.0f, 0.0f, 0.0f};
          for (int d = 0; d < DIM; ++d) k[d] = c[static_cast<std::size_t>(d)][first + l];
          WindowBuf want;
          compute_window(g, ev, k, DIM, dup, want);
          ASSERT_NO_FATAL_FAILURE(expect_same_window(got[l], want, DIM, dup))
              << "d" << DIM << " W=" << ev.radius() << " W2=" << W2 << " lanes=" << lanes
              << " lane=" << l << " dup=" << dup << " k=(" << k[0] << ", " << k[1] << ", "
              << k[2] << ")";
        }
      }
    }
  }
}

template <int DIM, int W2, bool HORNER>
void expect_block_at(double W) {
  WindowEval ev;
  if constexpr (HORNER) {
    const KernelHorner h(EsKernel(W, 2.0));
    ev.horner = &h;
    expect_block_matches_spec<DIM, W2, HORNER>(ev);
  } else {
    const KernelLut lut(KaiserBessel::with_beatty_beta(W, 2.0), 512);
    ev.lut = &lut;
    expect_block_matches_spec<DIM, W2, HORNER>(ev);
  }
}

/// The constexpr widths W2 = 4…8, and W read at run time at widths outside
/// that table (W = 2.3 for the LUT only: Horner needs a half-integer W).
template <int DIM, bool HORNER>
void expect_block_all_widths() {
  ASSERT_NO_FATAL_FAILURE((expect_block_at<DIM, 4, HORNER>(2.0)));
  ASSERT_NO_FATAL_FAILURE((expect_block_at<DIM, 5, HORNER>(2.5)));
  ASSERT_NO_FATAL_FAILURE((expect_block_at<DIM, 6, HORNER>(3.0)));
  ASSERT_NO_FATAL_FAILURE((expect_block_at<DIM, 7, HORNER>(3.5)));
  ASSERT_NO_FATAL_FAILURE((expect_block_at<DIM, 8, HORNER>(4.0)));
  for (const double W : {1.5, 4.5, 9.5}) {
    ASSERT_NO_FATAL_FAILURE((expect_block_at<DIM, 0, HORNER>(W)));
  }
  if constexpr (!HORNER) {
    ASSERT_NO_FATAL_FAILURE((expect_block_at<DIM, 0, false>(2.3)));
  }
}

TEST(WindowBlock, MatchesWindowSpecBitwise) {
  // The sample loop's Part 1 runs four samples across SSE lanes; each lane
  // must reproduce the per-sample reference bit for bit — geometry, trim,
  // wrapped indices, Horner and LUT weights, the duplicated weights — on
  // every dimension, evaluator and width, including partial blocks.
  ASSERT_NO_FATAL_FAILURE((expect_block_all_widths<1, false>()));
  ASSERT_NO_FATAL_FAILURE((expect_block_all_widths<1, true>()));
  ASSERT_NO_FATAL_FAILURE((expect_block_all_widths<2, false>()));
  ASSERT_NO_FATAL_FAILURE((expect_block_all_widths<2, true>()));
  ASSERT_NO_FATAL_FAILURE((expect_block_all_widths<3, false>()));
  ASSERT_NO_FATAL_FAILURE((expect_block_all_widths<3, true>()));
}

// ---- tolerance-driven planning ----

TEST(Tolerance, ResolvesCheapestCalibratedRow) {
  // A looser request must never get a wider kernel than a tighter one.
  double prev_kb = 0.0, prev_es = 0.0;
  for (double tol : {1e-2, 1e-3, 1e-4, 1e-5, 1e-6}) {
    const auto kb = resolve_tolerance(tol, KernelType::kKaiserBessel);
    const auto es = resolve_tolerance(tol, KernelType::kEs);
    ASSERT_GE(kb.kernel_radius, prev_kb);
    ASSERT_GE(es.kernel_radius, prev_es);
    ASSERT_LE(kb.calibrated_error, tol);
    ASSERT_LE(es.calibrated_error, tol);
    // The ISSUE's headline claim: ES reaches every tolerance at a width no
    // larger than the KB row's.
    ASSERT_LE(es.kernel_radius, kb.kernel_radius) << "tol=" << tol;
    ASSERT_EQ(es.eval, KernelEval::kHorner);
    ASSERT_EQ(kb.eval, KernelEval::kLut);
    prev_kb = kb.kernel_radius;
    prev_es = es.kernel_radius;
  }
}

TEST(Tolerance, UncalibratedRequestsThrowUnachievable) {
  const auto code_of = [](auto&& fn) {
    try {
      fn();
    } catch (const Error& e) {
      return e.code();
    }
    return ErrorCode::kInternal;
  };
  // Tighter than the tightest row.
  EXPECT_EQ(code_of([] { resolve_tolerance(1e-9, KernelType::kKaiserBessel); }),
            ErrorCode::kUnachievableAccuracy);
  // Gaussian has no calibration table.
  EXPECT_EQ(code_of([] { resolve_tolerance(1e-3, KernelType::kGaussian); }),
            ErrorCode::kUnachievableAccuracy);
  // Nonsense tolerances are caller mistakes, not calibration gaps.
  EXPECT_EQ(code_of([] { resolve_tolerance(0.0, KernelType::kEs); }),
            ErrorCode::kInvalidInput);
  EXPECT_EQ(code_of([] { resolve_tolerance(-1.0, KernelType::kEs); }),
            ErrorCode::kInvalidInput);
}

TEST(Tolerance, ApplyOverwritesKernelParameters) {
  PlanConfig cfg;
  cfg.kernel = KernelType::kEs;
  cfg.tolerance = 1e-4;
  cfg.kernel_radius = 99.0;  // must be replaced by the calibrated row
  apply_tolerance(cfg, 2.0);
  const auto row = resolve_tolerance(1e-4, KernelType::kEs);
  EXPECT_EQ(cfg.kernel_radius, row.kernel_radius);
  EXPECT_EQ(cfg.lut_samples_per_unit, row.lut_samples_per_unit);
  EXPECT_EQ(cfg.eval, row.eval);
}

TEST(Tolerance, ApplyIsIdempotentAndIgnoresZeroTolerance) {
  PlanConfig cfg;
  cfg.kernel_radius = 3.5;
  cfg.lut_samples_per_unit = 333;
  apply_tolerance(cfg, 2.0);  // tolerance == 0: manual parameters untouched
  EXPECT_EQ(cfg.kernel_radius, 3.5);
  EXPECT_EQ(cfg.lut_samples_per_unit, 333);

  cfg.kernel = KernelType::kEs;
  cfg.tolerance = 1e-3;
  apply_tolerance(cfg, 2.0);
  PlanConfig twice = cfg;
  apply_tolerance(twice, 2.0);
  EXPECT_EQ(twice.kernel_radius, cfg.kernel_radius);
  EXPECT_EQ(twice.eval, cfg.eval);
}

TEST(Tolerance, RejectsUndersampledGrid) {
  PlanConfig cfg;
  cfg.kernel = KernelType::kEs;
  cfg.tolerance = 1e-3;
  try {
    apply_tolerance(cfg, 1.25);  // below kCalibratedAlpha
    FAIL() << "expected kUnachievableAccuracy";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnachievableAccuracy);
  }
}

// ---- LUT ----

class LutAccuracy : public ::testing::TestWithParam<double> {};

TEST_P(LutAccuracy, LinearInterpolationErrorBounded) {
  const double W = GetParam();
  const auto kb = KaiserBessel::with_beatty_beta(W, 2.0);
  const KernelLut lut(kb, 1024);
  double max_err = 0.0;
  for (double d = 0.0; d <= W; d += W / 4096.0) {
    max_err = std::max(max_err,
                       std::abs(static_cast<double>(lut(static_cast<float>(d))) - kb.value(d)));
  }
  // Linear-interp error scales with the kernel curvature; 1024 samples/unit
  // keeps it far below single-precision NUFFT accuracy.
  EXPECT_LT(max_err, 5e-6) << "W=" << W;
}

TEST_P(LutAccuracy, NegativeDistanceMirrors) {
  const double W = GetParam();
  const auto kb = KaiserBessel::with_beatty_beta(W, 2.0);
  const KernelLut lut(kb, 512);
  for (float d = 0.0f; d <= static_cast<float>(W); d += 0.37f) {
    ASSERT_EQ(lut(d), lut(-d));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, LutAccuracy, ::testing::Values(2.0, 2.5, 4.0, 6.0, 8.0),
                         [](const auto& info) {
                           return "W" + std::to_string(static_cast<int>(info.param * 10));
                         });

TEST(Lut, EdgeValueAtRadiusDefined) {
  const auto kb = KaiserBessel::with_beatty_beta(4.0, 2.0);
  const KernelLut lut(kb, 256);
  // d == W must read a defined table slot (guard entries).
  EXPECT_NEAR(lut(4.0f), kb.value(4.0), 1e-5);
}

TEST(Lut, GuardContractAtEdgeOneUlp) {
  // Pins the guard-entry contract spelled out in lut.hpp: the guards hold
  // the one-sided edge value φ(W), NOT zero, so the lookup at exactly
  // d == W — and one float ulp to either side, distances the compute_window
  // float-rounding trim can legitimately admit — is a defined read
  // returning ≈ φ(W). Under the historical zeroed-guard bug, d ≥ the last
  // in-support sample interpolated toward 0, so lut(W ± 1 ulp) lost up to
  // the whole edge value; the EXPECT_GT below is the direct detector.
  for (const double W : {2.0, 2.5, 4.0}) {
    for (const int spu : {512, 777}) {
      const auto kb = KaiserBessel::with_beatty_beta(W, 2.0);
      const KernelLut lut(kb, spu);
      const auto Wf = static_cast<float>(W);
      const float below = std::nextafterf(Wf, 0.0f);
      const float above = std::nextafterf(Wf, 2.0f * Wf);
      const double edge = kb.value(W);
      // Same seam bound as GuardEntryHoldsTrueEdgeValue: the straddling
      // cell interpolates across the in-support/clamped-flat seam, erring
      // by O(h·|φ′(W)|) when W·spu is fractional.
      const double h = 1.0 / spu;
      const double seam = 5e-6 + 0.75 * std::abs(kb.value(W) - kb.value(W - h));
      EXPECT_NEAR(lut(Wf), edge, seam) << "W=" << W << " spu=" << spu;
      EXPECT_NEAR(lut(below), edge, seam) << "W=" << W << " spu=" << spu << " (W - 1 ulp)";
      EXPECT_NEAR(lut(above), edge, seam) << "W=" << W << " spu=" << spu << " (W + 1 ulp)";
      EXPECT_GT(lut(above), 0.5f * static_cast<float>(edge))
          << "zeroed-guard regression: lookup just past the edge collapsed toward 0 "
          << "(W=" << W << " spu=" << spu << ")";
    }
  }
}

class LutSupportEdge : public ::testing::TestWithParam<std::pair<double, int>> {};

TEST_P(LutSupportEdge, GuardEntryHoldsTrueEdgeValue) {
  // Regression for the guard-entry bug: table slots past W·spu used to be
  // zeroed, so a lookup just inside the support edge interpolated toward 0
  // instead of toward the kernel's true (discontinuous) one-sided value
  // φ(W) — for KB that is 1/I0(β), not 0. Fractional W·spu products make
  // the last in-support slot land mid-interval, which is where the zeroed
  // guard hurt most.
  const auto [W, spu] = GetParam();
  const auto kb = KaiserBessel::with_beatty_beta(W, 2.0);
  const KernelLut lut(kb, spu);
  double max_err = 0.0;
  // Walk the last two sample intervals up to and including d == W.
  const double h = 1.0 / spu;
  for (double d = W - 2.0 * h; d <= W; d += h / 64.0) {
    const double dd = std::min(d, W);
    max_err = std::max(max_err, std::abs(static_cast<double>(lut(static_cast<float>(dd))) -
                                         kb.value(dd)));
  }
  // When W·spu is fractional the last cell straddles the support edge:
  // linear interpolation across the in-support/clamped-flat seam errs by
  // O(h·|φ′(W)|), not the O(h²·φ″) of interior cells. Bound by the
  // one-sided slope; the zeroed-guard bug erred by φ(W)/2 — orders larger.
  const double slope = std::abs(kb.value(W) - kb.value(W - h)) / h;
  EXPECT_LT(max_err, 5e-6 + 0.75 * h * slope) << "W=" << W << " spu=" << spu;
  // The lookup exactly at the support edge must track the true one-sided
  // value φ(W) = 1/I0(β): the straddling cell costs at most a few percent
  // (slope · h relative to φ(W)), where zeroed guards lost 50% of it at
  // frac = 0.5 and all of it at integer W·spu.
  EXPECT_NEAR(static_cast<double>(lut(static_cast<float>(W))) / kb.value(W), 1.0, 3e-2)
      << "W=" << W << " spu=" << spu;
}

INSTANTIATE_TEST_SUITE_P(FractionalEdges, LutSupportEdge,
                         ::testing::Values(std::pair<double, int>{2.5, 511},
                                           std::pair<double, int>{2.5, 1024},
                                           std::pair<double, int>{3.0, 333},
                                           std::pair<double, int>{4.0, 1000},
                                           std::pair<double, int>{1.5, 777}),
                         [](const auto& info) {
                           return "W" + std::to_string(static_cast<int>(info.param.first * 10)) +
                                  "spu" + std::to_string(info.param.second);
                         });

TEST(Lut, StoresRadiusAndResolution) {
  const auto kb = KaiserBessel::with_beatty_beta(3.0, 2.0);
  const KernelLut lut(kb, 777);
  EXPECT_EQ(lut.radius(), 3.0f);
  EXPECT_EQ(lut.samples_per_unit(), 777);
}

// ---- rolloff ----

TEST(Rolloff, NumericMatchesAnalyticKaiserBessel) {
  const auto kb = KaiserBessel::with_beatty_beta(4.0, 2.0);
  const index_t N = 64, M = 128;
  const dvec numeric = apodization_1d(kb, N, M);
  const dvec analytic = apodization_1d_analytic(kb, N, M);
  // The discrete (integer-sampled) apodization approaches the continuous FT
  // of the kernel; they agree to a fraction of a percent in the FOV.
  for (index_t i = 0; i < N; ++i) {
    const double rel = std::abs(numeric[static_cast<std::size_t>(i)] -
                                analytic[static_cast<std::size_t>(i)]) /
                       std::abs(analytic[static_cast<std::size_t>(i)]);
    ASSERT_LT(rel, 5e-3) << "i=" << i;
  }
}

TEST(Rolloff, SymmetricAboutCenterForEvenN) {
  const auto kb = KaiserBessel::with_beatty_beta(4.0, 2.0);
  const dvec c = apodization_1d(kb, 64, 128);
  // c[n] is even in the centered index; array index N/2 is center.
  for (index_t off = 1; off < 32; ++off) {
    ASSERT_NEAR(c[static_cast<std::size_t>(32 + off)], c[static_cast<std::size_t>(32 - off)],
                1e-12);
  }
}

TEST(Rolloff, PeakAtImageCenter) {
  const auto kb = KaiserBessel::with_beatty_beta(4.0, 2.0);
  const dvec c = apodization_1d(kb, 64, 128);
  const double center = c[32];
  for (index_t i = 0; i < 64; ++i) ASSERT_LE(c[static_cast<std::size_t>(i)], center + 1e-12);
}

TEST(Rolloff, ScalingIsInverse) {
  const auto kb = KaiserBessel::with_beatty_beta(4.0, 2.0);
  const dvec c = apodization_1d(kb, 32, 64);
  const fvec s = rolloff_1d(kb, 32, 64);
  for (index_t i = 0; i < 32; ++i) {
    ASSERT_NEAR(static_cast<double>(s[static_cast<std::size_t>(i)]) *
                    c[static_cast<std::size_t>(i)],
                1.0, 1e-5);
  }
}

TEST(Rolloff, ThrowsWhenKernelTooNarrowForFov) {
  // A wide Gaussian kernel apodizes the image domain by ≈e^{-(2πn/M)²τ},
  // which underflows the invertibility threshold at the edge of a wide
  // field of view — the rolloff map must refuse to invert through it.
  const GaussianKernel wide(16.0, 2.72);
  EXPECT_THROW(rolloff_1d(wide, 120, 128), Error);
}

}  // namespace
}  // namespace nufft::kernels
