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
// nb = 8 batched entry bitwise. The same idiom checks the batch-width
// contract: slice b of every variant's nb = 8 call equals its nb = 1 call on
// slice b's data, bitwise. A third body runs each variant over sub-ranges
// of one long task that end at every edge of the sample loop's value
// blocks and in partial window blocks, against a per-sample loop written
// here. The remaining tests pin
// the registry shape, the runtime-W binding of uncovered widths, and that
// the plan-time selection is observable (PlanStats + the obs counter).
//
// Variants are driven directly over the plan's tasks, serially and in task
// order, so the comparison sees no scheduling effects.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/conv_dispatch.hpp"
#include "core/conv_variants.hpp"
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

/// A tight blob in the middle of the first of two fixed partitions per
/// dimension, in random caller order: one task holds every sample, and a
/// lowered privatization threshold makes it box-local.
SampleSet blob_samples(int dim, index_t m, index_t count, std::uint64_t seed) {
  SampleSet set;
  set.dim = dim;
  set.m = m;
  set.k = count;
  set.s = 1;
  Rng rng(seed);
  const double center = static_cast<double>(m) / 4.0;
  for (int d = 0; d < dim; ++d) {
    set.coords[static_cast<std::size_t>(d)].resize(static_cast<std::size_t>(count));
  }
  for (index_t i = 0; i < count; ++i) {
    for (int d = 0; d < dim; ++d) {
      set.coords[static_cast<std::size_t>(d)][static_cast<std::size_t>(i)] =
          static_cast<float>(center + rng.uniform(-1.5, 1.5));
    }
  }
  return set;
}

void expect_bitwise_equal(const cvecf& a, const cvecf& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(cfloat)), 0)
      << what << ": outputs differ bitwise";
}

/// One variant's outputs over every task of a plan for the nb slices of
/// `raws` / `grids` starting at `first`, per slice: the spread grid followed
/// by the slice's box in each privatized task, and the interp outputs.
struct SliceRun {
  std::vector<cvecf> spread;
  std::vector<cvecf> interp;
};

SliceRun run_variant(const Nufft& plan, const ConvVariant& v, const cvecf& raws,
                     const cvecf& grids, index_t first, index_t nb) {
  const GridDesc& g = plan.grid_desc();
  const Preprocessed& pp = plan.plan();
  const auto st = g.grid_strides();
  const index_t count = plan.sample_count();
  const auto gsize = static_cast<std::size_t>(g.grid_elems());
  const auto nbs = static_cast<std::size_t>(nb);
  std::vector<const cfloat*> in(nbs);
  std::vector<cfloat*> outs(nbs);
  SliceRun r;
  r.spread.resize(nbs);
  r.interp.assign(nbs, cvecf(static_cast<std::size_t>(count), cfloat(0.0f, 0.0f)));
  for (std::size_t b = 0; b < nbs; ++b) {
    in[b] = raws.data() + (first + static_cast<index_t>(b)) * count;
    outs[b] = r.interp[b].data();
  }

  cvecf grid(nbs * gsize, cfloat(0.0f, 0.0f));
  std::vector<cvecf> boxes(nbs);
  for (std::size_t k = 0; k < pp.tasks.size(); ++k) {
    const ConvTask& task = pp.tasks[k];
    if (!pp.privatized[k]) {
      v.spread(plan.conv_range(task, false), in.data(), nb, grid.data(), gsize, st);
      continue;
    }
    const auto box_elems = static_cast<std::size_t>(task.box_elems(g.dim));
    cvecf box(nbs * box_elems, cfloat(0.0f, 0.0f));
    v.spread(plan.conv_range(task, true), in.data(), nb, box.data(), box_elems,
             task.box_strides(g.dim));
    for (std::size_t b = 0; b < nbs; ++b) {
      boxes[b].insert(boxes[b].end(), box.begin() + b * box_elems,
                      box.begin() + (b + 1) * box_elems);
    }
  }
  for (std::size_t b = 0; b < nbs; ++b) {
    r.spread[b].assign(grid.begin() + b * gsize, grid.begin() + (b + 1) * gsize);
    r.spread[b].insert(r.spread[b].end(), boxes[b].begin(), boxes[b].end());
  }

  for (const ConvTask& task : pp.tasks) {
    v.interp(plan.conv_range(task, false), grids.data() + first * g.grid_elems(), gsize, st,
             outs.data(), nb);
  }
  return r;
}

/// Plan `set` under `cfg` (which resolves to `fixed`'s key), check the plan
/// binds `fixed`, and compare `fixed` against `runtime` on that plan at
/// nb = 1 and nb = kNb.
void compare_pair(const ConvVariant& fixed, const ConvVariant& runtime, const GridDesc& g,
                  const SampleSet& set, const PlanConfig& cfg) {
  const Nufft plan(g, set, cfg);
  ASSERT_EQ(&plan.conv_variant(), &fixed);
  ASSERT_TRUE(plan.plan_stats().conv_specialized);
  ASSERT_EQ(plan.plan_stats().conv_variant, fixed.name);
  ASSERT_EQ(plan.plan_stats().conv_variant_id, fixed.key.id());

  const cvecf raws = testing::random_raw(kNb * set.count(), 7);
  const cvecf grids = testing::random_image(kNb * g.grid_elems(), 8);
  for (const index_t nb : {index_t{1}, kNb}) {
    const SliceRun a = run_variant(plan, fixed, raws, grids, 0, nb);
    const SliceRun b = run_variant(plan, runtime, raws, grids, 0, nb);
    for (index_t s = 0; s < nb; ++s) {
      const std::string where = " nb=" + std::to_string(nb) + " slice " + std::to_string(s);
      expect_bitwise_equal(a.spread[s], b.spread[s], fixed.name + " vs runtime W spread" + where);
      expect_bitwise_equal(a.interp[s], b.interp[s], fixed.name + " vs runtime W interp" + where);
    }
  }
}

/// The batch-width contract of one variant on one plan: slice b of an
/// nb = kNb spread (privatized boxes included) and interp equals the nb = 1
/// call on slice b's data, bitwise.
void expect_slices_equal_singles(const ConvVariant& v, const GridDesc& g, const SampleSet& set,
                                 const PlanConfig& cfg) {
  const Nufft plan(g, set, cfg);
  const cvecf raws = testing::random_raw(kNb * set.count(), 11);
  const cvecf grids = testing::random_image(kNb * g.grid_elems(), 12);
  const SliceRun batch = run_variant(plan, v, raws, grids, 0, kNb);
  for (index_t b = 0; b < kNb; ++b) {
    const SliceRun single = run_variant(plan, v, raws, grids, b, 1);
    const std::string where = v.name + " slice " + std::to_string(b) + " vs its nb=1 call";
    expect_bitwise_equal(batch.spread[b], single.spread[0], where + " (spread)");
    expect_bitwise_equal(batch.interp[b], single.interp[0], where + " (interp)");
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

// ---- the batch-width contract ---------------------------------------------

TEST_EACH_VARIANT(ConvDispatchBatchWidth, SlicesEqualSingleSliceCallsBitwise) {
  // nb only sets the slice-group width, never the per-slice arithmetic, so
  // every slice of a batched call equals a single-slice call — on random
  // samples and on a clustered set whose privatized tasks spread into boxes.
  // Each runtime-W variant is checked alongside every constexpr-W sibling.
  const int dim = fixed.key.dim;
  const index_t n = image_n_for(dim);
  const GridDesc g = make_grid(dim, n, 2.0);
  const auto random = testing::small_trajectory(TrajectoryType::kRandom, dim, n, count_for(dim),
                                                53 + fixed.key.id() % 13);
  PlanConfig clustered_cfg = cfg_for(fixed.key);
  clustered_cfg.threads = 2;
  clustered_cfg.privatization_factor = 0.25;
  const SampleSet clustered = clustered_samples(dim, g.m[0], 600);
  ASSERT_GT(preprocess(g, clustered, clustered_cfg).stats.privatized_tasks, 0);
  for (const ConvVariant* v : {&fixed, &runtime}) {
    expect_slices_equal_singles(*v, g, random, cfg_for(fixed.key));
    expect_slices_equal_singles(*v, g, clustered, clustered_cfg);
  }
}

// ---- value blocks ----------------------------------------------------------

testing::Part2 part2_of(ConvBackend b) {
  switch (b) {
    case ConvBackend::kScalar: return testing::Part2::kScalar;
    case ConvBackend::kSse: return testing::Part2::kSse;
    case ConvBackend::kAvx2: break;
  }
  return testing::Part2::kAvx2;
}

/// Part 1 of reordered sample i as a loop without value blocks computes it:
/// compute_window, rebased into the task's box for a box-local range.
WindowBuf window_of(const ConvRange& r, ConvBackend backend, index_t i) {
  const int dim = r.g->dim;
  float coord[3] = {0.0f, 0.0f, 0.0f};
  for (int d = 0; d < dim; ++d) {
    coord[d] = r.coords[static_cast<std::size_t>(d)][static_cast<std::size_t>(i)];
  }
  WindowBuf wb;
  compute_window(*r.g, r.ev, coord, dim, backend != ConvBackend::kScalar, wb);
  if (r.box_lo != nullptr) {
    for (int d = 0; d < dim; ++d) {
      for (int t = 0; t < wb.len[d]; ++t) wb.idx[d][t] = wb.start[d] + t - r.box_lo[d];
    }
    wb.inner_contiguous = true;
  }
  return wb;
}

/// The spread without value blocks: per sample, its window, then the
/// backend's width-1 Part-2 kernel on each slice, with the value read
/// through orig_index.
void per_sample_spread(const ConvRange& r, ConvBackend backend, const cfloat* const* raws,
                       index_t nb, cfloat* slabs, std::size_t slab_stride,
                       const std::array<index_t, 3>& strides) {
  for (index_t i = r.begin; i < r.end; ++i) {
    const WindowBuf wb = window_of(r, backend, i);
    const index_t oi = r.orig_index[static_cast<std::size_t>(i)];
    for (index_t b = 0; b < nb; ++b) {
      testing::scatter1(part2_of(backend), r.g->dim,
                        slabs + static_cast<std::size_t>(b) * slab_stride, strides, wb,
                        raws[b][oi]);
    }
  }
}

/// The interp without value blocks, writing through orig_index.
void per_sample_interp(const ConvRange& r, ConvBackend backend, const cfloat* slabs,
                       std::size_t slab_stride, const std::array<index_t, 3>& strides,
                       cfloat* const* outs, index_t nb) {
  for (index_t i = r.begin; i < r.end; ++i) {
    const WindowBuf wb = window_of(r, backend, i);
    const index_t oi = r.orig_index[static_cast<std::size_t>(i)];
    for (index_t b = 0; b < nb; ++b) {
      outs[b][oi] = testing::gather1(part2_of(backend), r.g->dim,
                                     slabs + static_cast<std::size_t>(b) * slab_stride, strides,
                                     wb);
    }
  }
}

/// Point r's coordinates at copies that end with the range, so a loop that
/// read a coordinate past r.end would leave the allocation (the ASan sweep
/// reports it). Keep the returned copies alive while r is in use.
std::array<std::vector<float>, 3> coords_ending_at_range(ConvRange& r, int dim) {
  std::array<std::vector<float>, 3> copy;
  for (int d = 0; d < dim; ++d) {
    const auto u = static_cast<std::size_t>(d);
    copy[u].assign(r.coords[u], r.coords[u] + r.end);
    r.coords[u] = copy[u].data();
  }
  return copy;
}

TEST_EACH_VARIANT(ConvDispatchValueBlocks, BlockEdgesMatchPerSampleLoopBitwise) {
  // The sample loop moves values between caller order and a plan-order
  // buffer in blocks (kValueBlock samples at nb = 1, kSampleBlock in a
  // batch), and runs Part 1 in window blocks of four samples, padding the
  // last one of a range. Sub-ranges of one task that stop short of, at and
  // just past a block edge, that end in a 1–3-sample window block inside
  // or at the end of a value block, and one that ends in a partial block
  // after three full ones, must equal the per-sample loop bitwise: direct
  // and box-local spread and interp, at nb = 1 and at a batch with a
  // partial slice group. Each range's coordinates end with it, so the ASan
  // sweep checks that no window block reads past a range's last sample.
  constexpr index_t kB = detail::kValueBlock;
  constexpr index_t kLongest = 3 * kB + 5;
  constexpr index_t kWide = kSlabGroup + 3;
  const int dim = fixed.key.dim;
  const GridDesc g = make_grid(dim, image_n_for(dim), 2.0);
  PlanConfig cfg = cfg_for(fixed.key);
  cfg.threads = 2;
  cfg.partitions_per_dim = 2;
  cfg.variable_partitions = false;
  cfg.privatization_factor = 0.25;
  const Nufft plan(g, blob_samples(dim, g.m[0], kLongest + 16, 61 + dim), cfg);
  const Preprocessed& pp = plan.plan();
  const auto longest = std::max_element(
      pp.tasks.begin(), pp.tasks.end(),
      [](const ConvTask& x, const ConvTask& y) { return x.count() < y.count(); });
  const ConvTask& task = *longest;
  ASSERT_GE(task.count(), kLongest);
  ASSERT_TRUE(pp.privatized[static_cast<std::size_t>(longest - pp.tasks.begin())]);
  const auto first = pp.orig_index.begin() + task.begin;
  ASSERT_FALSE(std::is_sorted(first, first + kLongest)) << "caller order is not shuffled";

  const index_t count = plan.sample_count();
  const auto gsize = static_cast<std::size_t>(g.grid_elems());
  const cvecf raws = testing::random_raw(kWide * count, 71);
  const cvecf grids = testing::random_image(kWide * g.grid_elems(), 72);
  std::vector<const cfloat*> in(kWide);
  for (index_t b = 0; b < kWide; ++b) in[static_cast<std::size_t>(b)] = raws.data() + b * count;

  for (const ConvVariant* v : {&fixed, &runtime}) {
    for (const index_t nb : {index_t{1}, kWide}) {
      for (const index_t len : {index_t{0}, index_t{1}, index_t{2}, index_t{3}, index_t{5},
                                index_t{6}, index_t{7}, kB - 1, kB, kB + 1, kLongest}) {
        const std::string where =
            v->name + " nb=" + std::to_string(nb) + " len=" + std::to_string(len);
        for (const bool box : {false, true}) {
          ConvRange r = plan.conv_range(task, box);
          r.end = r.begin + len;
          const auto coords = coords_ending_at_range(r, dim);
          const auto slab = box ? static_cast<std::size_t>(task.box_elems(dim)) : gsize;
          const auto st = box ? task.box_strides(dim) : g.grid_strides();
          cvecf got(static_cast<std::size_t>(nb) * slab, cfloat(0.0f, 0.0f));
          cvecf want(got.size(), cfloat(0.0f, 0.0f));
          v->spread(r, in.data(), nb, got.data(), slab, st);
          per_sample_spread(r, v->key.backend, in.data(), nb, want.data(), slab, st);
          expect_bitwise_equal(got, want, where + (box ? " box-local spread" : " spread"));
        }
        ConvRange r = plan.conv_range(task, false);
        r.end = r.begin + len;
        const auto coords = coords_ending_at_range(r, dim);
        cvecf got(static_cast<std::size_t>(nb * count), cfloat(0.0f, 0.0f));
        cvecf want(got.size(), cfloat(0.0f, 0.0f));
        std::vector<cfloat*> got_out(static_cast<std::size_t>(nb));
        std::vector<cfloat*> want_out(got_out.size());
        for (index_t b = 0; b < nb; ++b) {
          got_out[static_cast<std::size_t>(b)] = got.data() + b * count;
          want_out[static_cast<std::size_t>(b)] = want.data() + b * count;
        }
        v->interp(r, grids.data(), gsize, g.grid_strides(), got_out.data(), nb);
        per_sample_interp(r, v->key.backend, grids.data(), gsize, g.grid_strides(),
                          want_out.data(), nb);
        expect_bitwise_equal(got, want, where + " interp");
      }
    }
  }
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
