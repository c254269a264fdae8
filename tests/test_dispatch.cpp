// Convolution dispatch registry (`ctest -L dispatch`).
//
// Per (backend, dim, evaluator) the registry holds one variant per
// calibrated width with W a compile-time constant, plus one runtime-W
// variant that every other width binds. Its load-bearing promise is
// BIT-identity: on the same plan, a constexpr-W variant must produce exactly
// the grids and sample values its runtime-W sibling produces, so the width
// table is a pure performance decision. The bit-match tests are written in
// drjit's TEST_BOTH style — TEST_EACH_VARIANT defines one body and runs it
// over every registered constexpr-W variant paired with its runtime-W
// sibling — and compare spread (direct and privatized-box), interp, and the
// nb = 8 batched entry bitwise. The remaining tests pin the registry shape,
// the runtime-W binding of uncovered widths, and that the plan-time
// selection is observable (PlanStats + the obs counter).
//
// Variants are driven directly over the plan's tasks, serially and in task
// order, so the comparison sees no scheduling effects.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "common/error.hpp"
#include "core/conv_dispatch.hpp"
#include "core/convolution_avx2.hpp"
#include "core/grid.hpp"
#include "core/nufft.hpp"
#include "core/tolerance.hpp"
#include "datasets/trajectory.hpp"
#include "kernels/es_kernel.hpp"
#include "kernels/horner.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace nufft {
namespace {

using datasets::SampleSet;
using datasets::TrajectoryType;
using kernels::KernelEval;

constexpr index_t kNb = 8;  // slices of the batched entry

// ---- plan-construction helpers -------------------------------------------

index_t image_n_for(int dim) { return dim == 3 ? 10 : (dim == 2 ? 20 : 64); }

index_t count_for(int dim) { return dim == 3 ? 400 : (dim == 2 ? 350 : 300); }

/// PlanConfig that resolves exactly to `key` at plan time.
PlanConfig cfg_for(const ConvVariantKey& key) {
  PlanConfig cfg;
  cfg.kernel = key.eval == KernelEval::kHorner ? kernels::KernelType::kEs
                                               : kernels::KernelType::kKaiserBessel;
  cfg.eval = key.eval;
  cfg.kernel_radius = static_cast<double>(key.width2) / 2.0;
  cfg.lut_samples_per_unit = 512;
  cfg.threads = 1;
  switch (key.backend) {
    case ConvBackend::kScalar:
      cfg.use_simd = false;
      break;
    case ConvBackend::kSse:
      cfg.use_simd = true;
      cfg.isa = SimdIsa::kSse;
      break;
    case ConvBackend::kAvx2:
      cfg.use_simd = true;
      cfg.isa = SimdIsa::kAvx2;
      break;
  }
  return cfg;
}

/// Coordinates adjacent to cell boundaries: exact integers, exact
/// half-integers, and ±1-ulp perturbations of both — the inputs where the
/// k ± W float-rounding trim admits or rejects an edge neighbour, which is
/// exactly where a constant-folded trim would diverge first.
SampleSet boundary_samples(int dim, index_t m, index_t count) {
  SampleSet set;
  set.dim = dim;
  set.m = m;
  set.k = count;
  set.s = 1;
  const auto mf = static_cast<float>(m);
  for (int d = 0; d < dim; ++d) {
    fvec& c = set.coords[static_cast<std::size_t>(d)];
    c.resize(static_cast<std::size_t>(count));
    for (index_t i = 0; i < count; ++i) {
      // March cells with a dim-dependent stride so the dims decorrelate.
      const float cell =
          static_cast<float>((static_cast<index_t>(i) * (d + 1) + d) % m);
      float v;
      switch (i % 8) {
        case 0: v = cell; break;                                      // integer
        case 1: v = cell + 0.5f; break;                               // half-integer
        case 2: v = std::nextafterf(cell + 0.5f, 0.0f); break;        // half − 1 ulp
        case 3: v = std::nextafterf(cell + 0.5f, mf); break;          // half + 1 ulp
        case 4: v = std::nextafterf(cell, mf); break;                 // int + 1 ulp
        case 5: v = cell > 0.0f ? std::nextafterf(cell, 0.0f) : 0.0f; break;
        case 6: v = std::nextafterf(mf, 0.0f); break;                 // domain edge
        default: v = mf - 0.5f; break;
      }
      if (!(v >= 0.0f && v < mf)) v = 0.0f;
      c[static_cast<std::size_t>(i)] = v;
    }
  }
  return set;
}

/// Clustered samples: a tight blob in one corner so at least one task
/// crosses the (lowered) Eq. 6 privatization threshold — covers the
/// box-rebased spread path of the variants.
SampleSet clustered_samples(int dim, index_t m, index_t count) {
  SampleSet set;
  set.dim = dim;
  set.m = m;
  set.k = count;
  set.s = 1;
  const auto mf = static_cast<float>(m);
  for (int d = 0; d < dim; ++d) {
    fvec& c = set.coords[static_cast<std::size_t>(d)];
    c.resize(static_cast<std::size_t>(count));
    for (index_t i = 0; i < count; ++i) {
      // Deterministic pseudo-random offsets inside a 3-cell blob near the
      // domain edge (so windows also wrap).
      const auto h = static_cast<float>((i * 2654435761u + d * 40503u) % 3000u) / 1000.0f;
      float v = mf - 1.5f + h;  // [m − 1.5, m + 1.5) before wrap
      if (v >= mf) v -= mf;
      c[static_cast<std::size_t>(i)] = v;
    }
  }
  return set;
}

void expect_bitwise_equal(const cvecf& a, const cvecf& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(cfloat)), 0)
      << what << ": constexpr-W and runtime-W outputs differ bitwise";
}

/// One variant's outputs over every task of a plan, at nb = 1 ([0]) and
/// nb = kNb ([1]): the spread grids followed by each privatized task's
/// box(es), and the interp outputs.
struct VariantRun {
  cvecf spread[2];
  cvecf interp[2];
};

VariantRun run_variant(const Nufft& plan, const ConvVariant& v, const cvecf& raws,
                       const cvecf& grids) {
  const GridDesc& g = plan.grid_desc();
  const Preprocessed& pp = plan.plan();
  const auto st = g.grid_strides();
  const index_t count = plan.sample_count();
  const auto gsize = static_cast<std::size_t>(g.grid_elems());
  std::vector<const cfloat*> in(kNb);
  for (index_t b = 0; b < kNb; ++b) in[static_cast<std::size_t>(b)] = raws.data() + b * count;

  VariantRun r;
  for (const int slot : {0, 1}) {
    const index_t nb = slot == 0 ? 1 : kNb;
    cvecf& grid = r.spread[slot];
    grid.assign(static_cast<std::size_t>(nb) * gsize, cfloat(0.0f, 0.0f));
    cvecf boxes;
    for (std::size_t k = 0; k < pp.tasks.size(); ++k) {
      const ConvTask& task = pp.tasks[k];
      if (!pp.privatized[k]) {
        v.spread(plan.conv_range(task, false), in.data(), nb, grid.data(), gsize, st);
        continue;
      }
      const auto box_elems = static_cast<std::size_t>(task.box_elems(g.dim));
      cvecf box(static_cast<std::size_t>(nb) * box_elems, cfloat(0.0f, 0.0f));
      v.spread(plan.conv_range(task, true), in.data(), nb, box.data(), box_elems,
               task.box_strides(g.dim));
      boxes.insert(boxes.end(), box.begin(), box.end());
    }
    grid.insert(grid.end(), boxes.begin(), boxes.end());

    cvecf& out = r.interp[slot];
    out.assign(static_cast<std::size_t>(nb * count), cfloat(0.0f, 0.0f));
    std::vector<cfloat*> outs(static_cast<std::size_t>(nb));
    for (index_t b = 0; b < nb; ++b) outs[static_cast<std::size_t>(b)] = out.data() + b * count;
    for (const ConvTask& task : pp.tasks) {
      v.interp(plan.conv_range(task, false), grids.data(), gsize, st, outs.data(), nb);
    }
  }
  return r;
}

/// Plan `set` under `cfg` (which resolves to `fixed`'s key), check the plan
/// binds `fixed`, and compare `fixed` against `runtime` on that plan.
void compare_pair(const ConvVariant& fixed, const ConvVariant& runtime, const GridDesc& g,
                  const SampleSet& set, const PlanConfig& cfg) {
  const Nufft plan(g, set, cfg);
  ASSERT_EQ(&plan.conv_variant(), &fixed);
  ASSERT_TRUE(plan.plan_stats().conv_specialized);
  ASSERT_EQ(plan.plan_stats().conv_variant, fixed.name);
  ASSERT_EQ(plan.plan_stats().conv_variant_id, fixed.key.id());

  const cvecf raws = testing::random_raw(kNb * set.count(), 7);
  const cvecf grids = testing::random_image(kNb * g.grid_elems(), 8);
  const VariantRun a = run_variant(plan, fixed, raws, grids);
  const VariantRun b = run_variant(plan, runtime, raws, grids);
  for (const int slot : {0, 1}) {
    const std::string nb = slot == 0 ? " nb=1" : " nb=8";
    expect_bitwise_equal(a.spread[slot], b.spread[slot], fixed.name + " spread" + nb);
    expect_bitwise_equal(a.interp[slot], b.interp[slot], fixed.name + " interp" + nb);
  }
}

bool backend_available(ConvBackend b) {
  return b != ConvBackend::kAvx2 || avx2_available();
}

/// Run `body(fixed, runtime)` over every registered constexpr-W variant the
/// CPU can execute, paired with its runtime-W sibling.
void for_each_variant_pair(void (*body)(const ConvVariant&, const ConvVariant&)) {
  const ConvDispatch& reg = ConvDispatch::instance();
  for (const ConvVariant& v : reg.variants()) {
    if (v.key.width2 == 0 || !backend_available(v.key.backend)) continue;
    ConvVariantKey rk = v.key;
    rk.width2 = 0;
    const ConvVariant* rt = reg.find(rk);
    ASSERT_NE(rt, nullptr) << v.name;
    SCOPED_TRACE(v.name + " vs " + rt->name);
    body(v, *rt);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// drjit's TEST_BOTH idiom: one body, declared once, run by a gtest case
/// over every registered (backend, dim, W, evaluator) variant pair.
#define TEST_EACH_VARIANT(suite, name)                                       \
  void suite##_##name(const ConvVariant& fixed, const ConvVariant& runtime); \
  TEST(suite, name) { for_each_variant_pair(&suite##_##name); }              \
  void suite##_##name(const ConvVariant& fixed, const ConvVariant& runtime)

// ---- registry shape -------------------------------------------------------

TEST(ConvDispatchRegistry, CoversEveryCalibratedCombination) {
  const auto& variants = ConvDispatch::instance().variants();
  // 3 backends × 3 dims × 2 evals × (5 constexpr widths + the runtime width).
  EXPECT_EQ(variants.size(), 108u);

  for (const ConvBackend b :
       {ConvBackend::kScalar, ConvBackend::kSse, ConvBackend::kAvx2}) {
    for (std::uint8_t dim = 1; dim <= 3; ++dim) {
      for (const std::uint8_t w2 : {0, 4, 5, 6, 7, 8}) {
        for (const KernelEval e : {KernelEval::kLut, KernelEval::kHorner}) {
          const ConvVariantKey key{b, dim, w2, e};
          const ConvVariant* v = ConvDispatch::instance().find(key);
          ASSERT_NE(v, nullptr)
              << conv_backend_name(b) << " d" << int(dim) << " w" << int(w2);
          EXPECT_TRUE(v->key == key);
          EXPECT_NE(v->spread, nullptr);
          EXPECT_NE(v->interp, nullptr);
          EXPECT_EQ(v->key.id(), key.id());
          EXPECT_EQ(v->name.find(".wrt.") != std::string::npos, w2 == 0) << v->name;
        }
      }
    }
  }
}

TEST(ConvDispatchRegistry, UnknownKeysFindNothing) {
  // Uncovered widths bind width2 = 0, never a key of their own.
  const auto& reg = ConvDispatch::instance();
  EXPECT_EQ(reg.find({ConvBackend::kScalar, 1, 3, KernelEval::kLut}), nullptr);   // W=1.5
  EXPECT_EQ(reg.find({ConvBackend::kScalar, 1, 9, KernelEval::kLut}), nullptr);   // W=4.5
  EXPECT_EQ(reg.find({ConvBackend::kAvx2, 4, 8, KernelEval::kHorner}), nullptr);  // dim 4
  EXPECT_EQ(reg.find({ConvBackend::kAvx2, 0, 8, KernelEval::kHorner}), nullptr);
  EXPECT_EQ(reg.find({ConvBackend::kSse, 4, 0, KernelEval::kLut}), nullptr);
}

TEST(ConvDispatchRegistry, Width2RecognizesOnlyCalibratedHalfIntegerWidths) {
  EXPECT_EQ(conv_width2(2.0), 4);
  EXPECT_EQ(conv_width2(2.5), 5);
  EXPECT_EQ(conv_width2(4.0), 8);
  EXPECT_EQ(conv_width2(1.5), 0);   // below the calibrated set
  EXPECT_EQ(conv_width2(4.5), 0);   // above it
  EXPECT_EQ(conv_width2(2.3), 0);   // not half-integer
  EXPECT_EQ(conv_width2(0.0), 0);
}

// ---- the AVX2 Horner row evaluator ---------------------------------------

TEST(HornerAvx2, LaneExactWithScalarRecurrence) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2+FMA on this CPU";
  for (const double W : {1.5, 2.0, 2.5, 3.0, 4.0, 4.5}) {
    const kernels::EsKernel es(W, 2.0);
    const kernels::KernelHorner h(es);
    ASSERT_EQ(h.stride() % 8, 0) << "AVX2 row evaluation needs 8-float rows";
    const int len = h.segments();
    float ref[kernels::KernelHorner::kMaxStride];
    float got[kernels::KernelHorner::kMaxStride];
    for (int s = 0; s <= 64; ++s) {
      const float z = static_cast<float>(s) / 64.0f;
      h.eval_window(z, len, ref);
      kernels::eval_window_avx2(h, z, len, got);
      for (int i = 0; i < len; ++i) {
        ASSERT_EQ(std::memcmp(&ref[i], &got[i], sizeof(float)), 0)
            << "W=" << W << " z=" << z << " lane " << i
            << ": scalar=" << ref[i] << " avx2=" << got[i];
      }
    }
  }
}

// ---- the bit-match matrix -------------------------------------------------

TEST_EACH_VARIANT(ConvDispatchBitMatch, EveryVariantMatchesRuntimeWidthOnRandomPlans) {
  const int dim = fixed.key.dim;
  const index_t n = image_n_for(dim);
  const GridDesc g = make_grid(dim, n, 2.0);
  const auto set = testing::small_trajectory(TrajectoryType::kRandom, dim, n, count_for(dim),
                                             31 + fixed.key.id() % 17);
  compare_pair(fixed, runtime, g, set, cfg_for(fixed.key));
}

TEST_EACH_VARIANT(ConvDispatchBitMatch, BoundaryCoordinateSweep) {
  // Coordinates pinned to (and 1 ulp around) cell boundaries — where the
  // float-rounding trim decides whether the edge neighbour is in or out —
  // must produce bitwise-equal grids whether W is folded or read at run time.
  const int dim = fixed.key.dim;
  const GridDesc g = make_grid(dim, image_n_for(dim), 2.0);
  compare_pair(fixed, runtime, g, boundary_samples(dim, g.m[0], count_for(dim)),
               cfg_for(fixed.key));
}

TEST_EACH_VARIANT(ConvDispatchBitMatch, PrivatizedTasksMatchRuntimeWidth) {
  // Clustered samples + a lowered threshold push tasks onto the privatized
  // (box-local, rebased-index) spread path. Privatization needs a plan for
  // more than one thread; the variants still run serially here.
  const int dim = fixed.key.dim;
  const GridDesc g = make_grid(dim, image_n_for(dim), 2.0);
  const auto set = clustered_samples(dim, g.m[0], 600);
  PlanConfig cfg = cfg_for(fixed.key);
  cfg.threads = 2;
  cfg.privatization_factor = 0.25;
  ASSERT_GT(preprocess(g, set, cfg).stats.privatized_tasks, 0) << "no privatized task";
  compare_pair(fixed, runtime, g, set, cfg);
}

// ---- runtime-W binding -----------------------------------------------------

TEST(ConvDispatchFallback, UncoveredWidthsBindRuntimeWidthVariant) {
  const int dim = 2;
  const index_t n = image_n_for(dim);
  const GridDesc g = make_grid(dim, n, 2.0);
  const auto set = testing::small_trajectory(TrajectoryType::kRadial, dim, n, 300);

  for (const double W : {1.5, 2.3, 4.5}) {
    for (const KernelEval e : {KernelEval::kLut, KernelEval::kHorner}) {
      if (e == KernelEval::kHorner && W == 2.3) continue;  // Horner needs half-integer W
      PlanConfig cfg;
      cfg.kernel_radius = W;
      cfg.threads = 1;
      cfg.eval = e;
      if (e == KernelEval::kHorner) cfg.kernel = kernels::KernelType::kEs;
      const Nufft plan(g, set, cfg);
      const ConvVariantKey key{plan.conv_mode(), static_cast<std::uint8_t>(dim), 0, e};
      const ConvVariant* v = ConvDispatch::instance().find(key);
      ASSERT_NE(v, nullptr);
      SCOPED_TRACE(v->name + " W=" + std::to_string(W));
      EXPECT_EQ(&plan.conv_variant(), v);
      EXPECT_FALSE(plan.plan_stats().conv_specialized);
      EXPECT_EQ(plan.plan_stats().conv_variant, v->name);
      EXPECT_EQ(plan.plan_stats().conv_variant_id, key.id());
    }
  }
  // A covered shape binds the constexpr-W variant the config implies, with
  // the kAuto ISA resolving to the widest available backend.
  PlanConfig cfg;
  cfg.threads = 1;  // default W = 4.0, KB + LUT
  cfg.isa = SimdIsa::kAuto;
  const Nufft plan(g, set, cfg);
  EXPECT_TRUE(plan.plan_stats().conv_specialized);
  const char* backend = avx2_available() ? "avx2" : "sse";
  EXPECT_EQ(plan.plan_stats().conv_variant, std::string(backend) + ".d2.w8.lut");
}

// ---- plan-time observability -----------------------------------------------

TEST(ConvDispatchObs, ToleranceDrivenEsPlanSelectsHornerVariantAndCounts) {
  // A tolerance-planned ES config must bind the Horner variant (AVX2 on
  // hardware that has it) and the selection must be observable through the
  // obs counter.
  const int dim = 3;
  const index_t n = image_n_for(dim);
  const GridDesc g = make_grid(dim, n, 2.0);
  const auto set = testing::small_trajectory(TrajectoryType::kRandom, dim, n, 300);

  PlanConfig cfg;
  cfg.kernel = kernels::KernelType::kEs;
  cfg.tolerance = 1e-6;  // calibration table: W = 4.0, Horner
  cfg.threads = 1;
  cfg.isa = SimdIsa::kAuto;

  obs::set_metrics_enabled(true);
  obs::MetricsRegistry::instance().reset();
  Nufft plan(g, set, cfg);
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  obs::set_metrics_enabled(false);

  ASSERT_TRUE(plan.plan_stats().conv_specialized);
  const std::string expected_backend = avx2_available() ? "avx2" : "sse";
  EXPECT_EQ(plan.plan_stats().conv_variant, expected_backend + ".d3.w8.horner");

  const std::string counter = "nufft.conv.variant." + plan.plan_stats().conv_variant;
  bool found = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == counter) {
      found = true;
      EXPECT_GE(value, 1u);
    }
  }
  EXPECT_TRUE(found) << "selection counter " << counter << " was not recorded";
}

}  // namespace
}  // namespace nufft
