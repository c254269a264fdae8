// Streaming trajectory-update suite (`ctest -L streaming`).
//
// The delta path's contract (core/preprocess.hpp update_preprocessed): after
// an update — whatever path it took — the plan is bit-identical to a cold
// preprocess() of the new samples, at any pool width. These tests pin that
// contract across dimensions, pool widths, jitter fractions (including the
// 0% no-op and the 100% fallback), ±1 ulp partition-boundary crossers, and
// up through the operator layer (Nufft::update_samples and the warm-derive
// constructor must transform bit-identically to a fresh plan).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/nufft.hpp"
#include "core/plan_cache.hpp"
#include "core/preprocess.hpp"
#include "core/preprocess_detail.hpp"
#include "exec/batch_nufft.hpp"
#include "exec/engine.hpp"
#include "exec/plan_registry.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "test_util.hpp"

namespace nufft {
namespace {

using datasets::SampleSet;
using datasets::TrajectoryType;

PlanConfig plan_config() {
  PlanConfig cfg;
  cfg.threads = 8;  // fixed: cfg parameterizes the plan, the pool only runs it
  cfg.kernel_radius = 2.0;
  return cfg;
}

// Perturb ~`fraction` of the samples by up to ±`mag` grid cells per
// dimension, clamped into [0, m). Deterministic in `seed`.
SampleSet jitter(const SampleSet& base, double fraction, float mag, std::uint64_t seed) {
  SampleSet out = base;
  Rng rng(seed);
  const float lim = std::nextafterf(static_cast<float>(base.m), 0.0f);
  for (index_t i = 0; i < base.count(); ++i) {
    if (rng.uniform() >= fraction) continue;
    for (int d = 0; d < base.dim; ++d) {
      auto& c = out.coords[static_cast<std::size_t>(d)][static_cast<std::size_t>(i)];
      float x = c + static_cast<float>(rng.uniform(-mag, mag));
      if (x < 0.0f) x = 0.0f;
      if (x > lim) x = lim;
      c = x;
    }
  }
  return out;
}

// Field-by-field bit equality of two preprocessing results (stats and delta
// bookkeeping excluded — they describe how the result was produced).
void expect_identical(const Preprocessed& a, const Preprocessed& b) {
  ASSERT_EQ(a.layout.dim, b.layout.dim);
  for (int d = 0; d < a.layout.dim; ++d) {
    const auto sd = static_cast<std::size_t>(d);
    EXPECT_EQ(a.layout.num_parts[sd], b.layout.num_parts[sd]);
    ASSERT_EQ(a.layout.bounds[sd], b.layout.bounds[sd]);
  }
  ASSERT_EQ(a.orig_index, b.orig_index);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t k = 0; k < a.tasks.size(); ++k) {
    EXPECT_EQ(a.tasks[k].begin, b.tasks[k].begin);
    EXPECT_EQ(a.tasks[k].end, b.tasks[k].end);
    EXPECT_EQ(a.tasks[k].box_lo, b.tasks[k].box_lo);
    EXPECT_EQ(a.tasks[k].box_hi, b.tasks[k].box_hi);
  }
  ASSERT_EQ(a.weights, b.weights);
  ASSERT_EQ(a.privatized, b.privatized);
  EXPECT_EQ(a.privatization_threshold, b.privatization_threshold);
  for (int d = 0; d < a.layout.dim; ++d) {
    const auto& ca = a.coords[static_cast<std::size_t>(d)];
    const auto& cb = b.coords[static_cast<std::size_t>(d)];
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t i = 0; i < ca.size(); ++i) {
      ASSERT_EQ(std::memcmp(&ca[i], &cb[i], sizeof(float)), 0)
          << "coords differ bitwise at dim " << d << " index " << i;
    }
  }
}

// The delta bookkeeping an update commits must equal what a cold build of
// the same samples records — the next update diffs against it.
void expect_same_delta(const Preprocessed& a, const Preprocessed& b) {
  ASSERT_NE(a.delta, nullptr);
  ASSERT_NE(b.delta, nullptr);
  ASSERT_EQ(a.delta->task_of, b.delta->task_of);
  for (int d = 0; d < a.layout.dim; ++d) {
    const auto sd = static_cast<std::size_t>(d);
    ASSERT_EQ(a.delta->cell_counts[sd], b.delta->cell_counts[sd]) << "dim " << d;
    const auto& pa = a.delta->prev_coords[sd];
    const auto& pb = b.delta->prev_coords[sd];
    ASSERT_EQ(pa.size(), pb.size());
    ASSERT_EQ(std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(float)), 0) << "dim " << d;
  }
}

// The matrix the acceptance criteria name: dims × pool widths × jitter
// fractions, fixed layouts so the path is deterministic (a fixed layout is
// geometry-only — it can never move, so any sub-threshold delta stays warm).
TEST(Streaming, WarmBitMatchMatrixFixedLayout) {
  for (const int dim : {1, 2, 3}) {
    const index_t n = dim == 3 ? 16 : 32;
    const GridDesc g = make_grid(dim, n, 2.0);
    const auto base = testing::small_trajectory(TrajectoryType::kRadial, dim, n, 8000);
    PlanConfig cfg = plan_config();
    cfg.variable_partitions = false;
    ThreadPool serial(1);
    for (const double frac : {0.0, 0.01, 0.05, 0.20}) {
      const SampleSet next = jitter(base, frac, 0.75f, 42);
      const auto reference = preprocess(g, next, cfg, serial);
      for (const int width : {1, 3, 8}) {
        ThreadPool pool(width);
        auto pp = preprocess(g, base, cfg, pool);
        const UpdatePath path = update_preprocessed(pp, g, next, cfg, pool);
        if (frac == 0.0) {
          EXPECT_EQ(path, UpdatePath::kNoop);
        } else {
          EXPECT_EQ(path, UpdatePath::kWarm)
              << "dim " << dim << " frac " << frac << " width " << width;
          EXPECT_TRUE(pp.stats.warm_update);
        }
        expect_identical(reference, pp);
      }
    }
  }
}

// Variable layouts re-run the boundary walk on patched histograms; whether a
// given delta stays warm or falls back is data-dependent, but the result must
// be bit-identical to the cold build either way — including 100% movement,
// which must take the rebuild fallback.
TEST(Streaming, VariableLayoutAnyPathBitIdentical) {
  for (const int dim : {2, 3}) {
    const index_t n = dim == 3 ? 16 : 32;
    const GridDesc g = make_grid(dim, n, 2.0);
    const auto base = testing::small_trajectory(TrajectoryType::kSpiral, dim, n, 8000);
    const PlanConfig cfg = plan_config();
    ThreadPool serial(1);
    for (const double frac : {0.01, 0.05, 0.20, 1.0}) {
      const SampleSet next = jitter(base, frac, 0.75f, 7);
      const auto reference = preprocess(g, next, cfg, serial);
      for (const int width : {1, 8}) {
        ThreadPool pool(width);
        auto pp = preprocess(g, base, cfg, pool);
        const UpdatePath path = update_preprocessed(pp, g, next, cfg, pool);
        EXPECT_NE(path, UpdatePath::kNoop);
        if (frac == 1.0) EXPECT_EQ(path, UpdatePath::kRebuild);
        expect_identical(reference, pp);
      }
    }
  }
}

// Successive warm updates must not drift: each frame's plan equals the cold
// build of that frame, not just frame 1's.
TEST(Streaming, RepeatedWarmUpdatesDoNotDrift) {
  const GridDesc g = make_grid(2, 32, 2.0);
  const auto base = testing::small_trajectory(TrajectoryType::kRandom, 2, 32, 6000);
  PlanConfig cfg = plan_config();
  cfg.variable_partitions = false;
  ThreadPool pool(4);
  ThreadPool serial(1);
  auto pp = preprocess(g, base, cfg, pool);
  SampleSet frame = base;
  for (int f = 0; f < 5; ++f) {
    frame = jitter(frame, 0.03, 0.5f, 100 + static_cast<std::uint64_t>(f));
    const UpdatePath path = update_preprocessed(pp, g, frame, cfg, pool);
    EXPECT_EQ(path, UpdatePath::kWarm) << "frame " << f;
    expect_identical(preprocess(g, frame, cfg, serial), pp);
  }
}

// Hundreds of arrivals per task, so the update sorts them with the radix
// path (kRadixCutoff = 128) and the keys need two 8-bit digits (m = 128,
// tile 8: 14 key bits). The radix sort is stable, so this pins that the
// arrival scatter hands each task its arrivals idx-ascending; chained frames
// pin the committed delta state as well.
TEST(Streaming, RadixPathChainedFramesBitIdentical) {
  const GridDesc g = make_grid(2, 64, 2.0);
  // Uniform over the grid, so even the narrow last row and column of tasks
  // get well over kRadixCutoff arrivals per frame.
  SampleSet base;
  base.dim = 2;
  base.m = g.m[0];
  base.k = 600;
  base.s = 100;
  Rng rng(77);
  const float top = std::nextafterf(static_cast<float>(base.m), 0.0f);
  for (int d = 0; d < 2; ++d) {
    auto& c = base.coords[static_cast<std::size_t>(d)];
    c.resize(static_cast<std::size_t>(base.count()));
    for (auto& x : c) {
      x = std::min(static_cast<float>(rng.uniform(0.0, static_cast<double>(base.m))), top);
    }
  }
  for (const bool reorder : {true, false}) {
    PlanConfig cfg = plan_config();
    cfg.threads = 2;  // 6 × 6 = 36 tasks
    cfg.variable_partitions = false;
    cfg.reorder = reorder;
    ThreadPool serial(1);
    for (const int width : {1, 3, 8}) {
      ThreadPool pool(width);
      auto pp = preprocess(g, base, cfg, pool);
      ASSERT_EQ(pp.tasks.size(), 36u);
      SampleSet frame = base;
      for (int f = 0; f < 5; ++f) {
        SCOPED_TRACE(::testing::Message() << "reorder " << reorder << " width " << width
                                          << " frame " << f);
        const SampleSet next = jitter(frame, 0.20, 0.75f, 300 + static_cast<std::uint64_t>(f));
        // Arrivals per task, counted from the definitions.
        std::vector<index_t> arrivals(pp.tasks.size(), 0);
        for (index_t i = 0; i < next.count(); ++i) {
          const auto si = static_cast<std::size_t>(i);
          if (std::memcmp(&next.coords[0][si], &frame.coords[0][si], sizeof(float)) == 0 &&
              std::memcmp(&next.coords[1][si], &frame.coords[1][si], sizeof(float)) == 0) {
            continue;
          }
          const int t = pp.layout.flatten({pp.layout.locate(0, next.coords[0][si]),
                                           pp.layout.locate(1, next.coords[1][si]), 0});
          ++arrivals[static_cast<std::size_t>(t)];
        }
        // Every task sorts its arrivals on the radix path.
        EXPECT_GE(*std::min_element(arrivals.begin(), arrivals.end()), detail::kRadixCutoff);
        EXPECT_GE(*std::max_element(arrivals.begin(), arrivals.end()), 300);
        ASSERT_EQ(update_preprocessed(pp, g, next, cfg, pool), UpdatePath::kWarm);
        const auto cold = preprocess(g, next, cfg, serial);
        expect_identical(cold, pp);
        expect_same_delta(cold, pp);
        frame = next;
      }
    }
  }
}

// The update's four passes are spans nested under prep.update, one each,
// like the cold build's prep.partition/bin/reorder/gather; a no-op update
// diffs but emits none of them.
TEST(Streaming, WarmUpdateEmitsPassSpans) {
  const GridDesc g = make_grid(2, 32, 2.0);
  const auto base = testing::small_trajectory(TrajectoryType::kRandom, 2, 32, 6000);
  PlanConfig cfg = plan_config();
  cfg.variable_partitions = false;
  ThreadPool pool(2);
  auto pp = preprocess(g, base, cfg, pool);
  const SampleSet next = jitter(base, 0.05, 0.75f, 21);
  const char* const kPasses[] = {"prep.update.diff", "prep.update.rebin", "prep.update.merge",
                                 "prep.update.publish"};
  obs::set_trace_enabled(true);
  obs::reset_spans();
  ASSERT_EQ(update_preprocessed(pp, g, next, cfg, pool), UpdatePath::kWarm);
  const auto warm = obs::drain_spans();
  SampleSet same = next;
  ASSERT_EQ(update_preprocessed(pp, g, same, cfg, pool), UpdatePath::kNoop);
  const auto noop = obs::drain_spans();
  obs::set_trace_enabled(false);

  const obs::SpanEvent* parent = nullptr;
  for (const auto& s : warm) {
    if (std::string(s.name) == "prep.update") parent = &s;
  }
  ASSERT_NE(parent, nullptr);
  for (const char* name : kPasses) {
    int seen = 0;
    for (const auto& s : warm) {
      if (std::string(s.name) != name) continue;
      ++seen;
      EXPECT_EQ(std::string(s.cat), "prep");
      EXPECT_GE(s.t0_ns, parent->t0_ns) << name;
      EXPECT_LE(s.t1_ns, parent->t1_ns) << name;
      EXPECT_LE(s.t0_ns, s.t1_ns) << name;
    }
    EXPECT_EQ(seen, 1) << name;
    for (const auto& s : noop) EXPECT_NE(std::string(s.name), name) << "no-op emitted it";
  }
}

// A ±1 ulp nudge across a partition boundary must re-bin the sample exactly
// as a cold build would — the delta path replicates locate()'s cast/clamp.
TEST(Streaming, UlpBoundaryCrossers) {
  const GridDesc g = make_grid(1, 32, 2.0);
  auto base = testing::small_trajectory(TrajectoryType::kRandom, 1, 32, 4000);
  PlanConfig cfg = plan_config();
  cfg.variable_partitions = false;
  ThreadPool pool(4);
  ThreadPool serial(1);
  auto pp = preprocess(g, base, cfg, pool);
  // Plant a few samples exactly on the first interior boundary, then nudge
  // them one ulp to either side.
  ASSERT_GT(pp.layout.num_parts[0], 1);
  const float b = static_cast<float>(pp.layout.bounds[0][1]);
  SampleSet next = base;
  next.coords[0][0] = b;
  next.coords[0][1] = std::nextafterf(b, 0.0f);
  next.coords[0][2] = std::nextafterf(b, static_cast<float>(g.m[0]));
  const UpdatePath path = update_preprocessed(pp, g, next, cfg, pool);
  EXPECT_EQ(path, UpdatePath::kWarm);
  expect_identical(preprocess(g, next, cfg, serial), pp);
}

TEST(Streaming, NoopLeavesPlanUntouched) {
  const GridDesc g = make_grid(2, 32, 2.0);
  const auto base = testing::small_trajectory(TrajectoryType::kRadial, 2, 32, 5000);
  const PlanConfig cfg = plan_config();
  ThreadPool pool(4);
  auto pp = preprocess(g, base, cfg, pool);
  const auto snapshot = clone_preprocessed(pp);
  SampleSet same = base;  // distinct buffers, identical bits
  EXPECT_EQ(update_preprocessed(pp, g, same, cfg, pool), UpdatePath::kNoop);
  expect_identical(snapshot, pp);
  EXPECT_FALSE(pp.stats.warm_update);
}

// A restored plan carries no delta bookkeeping; the first update rebuilds it
// lazily from the plan itself and must still match the cold build.
TEST(Streaming, RestoredPlanWarmUpdates) {
  const GridDesc g = make_grid(2, 32, 2.0);
  const auto base = testing::small_trajectory(TrajectoryType::kSpiral, 2, 32, 5000);
  PlanConfig cfg = plan_config();
  cfg.variable_partitions = false;
  ThreadPool pool(4);
  ThreadPool serial(1);
  const auto pp0 = preprocess(g, base, cfg, pool);
  const auto blob = serialize_plan(pp0, g, cfg);
  auto pp = deserialize_plan(blob.data(), blob.size(), g, base, cfg);
  ASSERT_EQ(pp.delta, nullptr);
  const SampleSet next = jitter(base, 0.05, 0.75f, 9);
  EXPECT_EQ(update_preprocessed(pp, g, next, cfg, pool), UpdatePath::kWarm);
  expect_identical(preprocess(g, next, cfg, serial), pp);
}

TEST(Streaming, SampleCountChangeFallsBack) {
  const GridDesc g = make_grid(2, 32, 2.0);
  const auto base = testing::small_trajectory(TrajectoryType::kRandom, 2, 32, 5000);
  const PlanConfig cfg = plan_config();
  ThreadPool pool(4);
  ThreadPool serial(1);
  auto pp = preprocess(g, base, cfg, pool);
  const auto next = testing::small_trajectory(TrajectoryType::kRandom, 2, 32, 3000, 7);
  EXPECT_EQ(update_preprocessed(pp, g, next, cfg, pool), UpdatePath::kRebuild);
  expect_identical(preprocess(g, next, cfg, serial), pp);
}

TEST(Streaming, WarmUpdateStatsAndCounters) {
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry::instance().reset();
  const GridDesc g = make_grid(2, 32, 2.0);
  const auto base = testing::small_trajectory(TrajectoryType::kRadial, 2, 32, 6000);
  PlanConfig cfg = plan_config();
  cfg.variable_partitions = false;
  ThreadPool pool(4);
  auto pp = preprocess(g, base, cfg, pool);
  const SampleSet next = jitter(base, 0.05, 1.5f, 11);
  ASSERT_EQ(update_preprocessed(pp, g, next, cfg, pool), UpdatePath::kWarm);
  EXPECT_TRUE(pp.stats.warm_update);
  EXPECT_GT(pp.stats.update_s, 0.0);
  EXPECT_GT(pp.stats.rebinned_samples, 0);
  EXPECT_GT(pp.stats.dirty_tasks, 0);
  EXPECT_EQ(pp.stats.total_s, 0.0);  // cold timings never conflated
  auto& reg = obs::MetricsRegistry::instance();
  EXPECT_EQ(reg.counter("nufft.plan.updates").value(), 1u);
  EXPECT_EQ(reg.counter("nufft.plan.update_fallbacks").value(), 0u);
  SampleSet same = next;
  ASSERT_EQ(update_preprocessed(pp, g, same, cfg, pool), UpdatePath::kNoop);
  EXPECT_EQ(reg.counter("nufft.plan.update_noops").value(), 1u);
  obs::set_metrics_enabled(false);
}

// --- operator layer -------------------------------------------------------

TEST(Streaming, NufftUpdateSamplesMatchesFreshPlan) {
  const GridDesc g = make_grid(2, 32, 2.0);
  const auto base = testing::small_trajectory(TrajectoryType::kRadial, 2, 32, 4000);
  PlanConfig cfg = plan_config();
  cfg.threads = 4;
  cfg.variable_partitions = false;
  const SampleSet next = jitter(base, 0.05, 0.75f, 13);

  Nufft plan(g, base, cfg);
  EXPECT_EQ(plan.update_samples(next), UpdatePath::kWarm);
  EXPECT_EQ(plan.plan_stats().generation, 1u);
  EXPECT_TRUE(plan.plan_stats().warm_updated);

  Nufft fresh(g, next, cfg);
  const auto image = testing::random_image(g.image_elems(), 5);
  cvecf raw_a(static_cast<std::size_t>(next.count()));
  cvecf raw_b(static_cast<std::size_t>(next.count()));
  plan.forward(image.data(), raw_a.data());
  fresh.forward(image.data(), raw_b.data());
  EXPECT_EQ(testing::max_abs_diff(raw_a.data(), raw_b.data(), next.count()), 0.0);

  const auto raw_in = testing::random_raw(next.count(), 6);
  cvecf img_a(static_cast<std::size_t>(g.image_elems()));
  cvecf img_b(static_cast<std::size_t>(g.image_elems()));
  plan.adjoint(raw_in.data(), img_a.data());
  fresh.adjoint(raw_in.data(), img_b.data());
  EXPECT_EQ(testing::max_abs_diff(img_a.data(), img_b.data(), g.image_elems()), 0.0);
}

// Apply state made before an in-place update: an update that privatizes a
// new task must not leave an earlier Workspace or BatchNufft without that
// task's private buffer — every adjoint fits its buffers to the plan's
// current marks, so both match a cold plan bitwise.
TEST(Streaming, WorkspaceMadeBeforeUpdateMatchesFreshPlan) {
  const GridDesc g = make_grid(2, 64, 2.0);
  const auto base = testing::small_trajectory(TrajectoryType::kRandom, 2, 64, 8192);
  PlanConfig cfg = plan_config();
  cfg.threads = 2;
  cfg.variable_partitions = false;
  // Move 20% of the samples into one 2×2-cell patch: the task holding it
  // becomes over-dense and is privatized.
  SampleSet next = base;
  Rng rng(23);
  for (std::size_t i = 0; i < next.coords[0].size(); ++i) {
    if (rng.uniform() >= 0.2) continue;
    next.coords[0][i] = static_cast<float>(90.0 + rng.uniform(0.0, 2.0));
    next.coords[1][i] = static_cast<float>(30.0 + rng.uniform(0.0, 2.0));
  }

  Nufft plan(g, base, cfg);
  const std::vector<char> marks_before = plan.plan().privatized;
  Workspace ws = plan.make_workspace();
  exec::BatchNufft batch(plan, 2);
  ASSERT_EQ(plan.update_samples(next), UpdatePath::kWarm);
  const std::vector<char>& marks = plan.plan().privatized;
  ASSERT_EQ(marks.size(), marks_before.size());  // fixed partitions: same task list
  bool newly_privatized = false;
  for (std::size_t k = 0; k < marks.size(); ++k) newly_privatized |= marks[k] && !marks_before[k];
  ASSERT_TRUE(newly_privatized) << "the update must privatize a task the old marks did not";

  Nufft fresh(g, next, cfg);
  const auto raw0 = testing::random_raw(next.count(), 31);
  const auto raw1 = testing::random_raw(next.count(), 32);
  cvecf want(static_cast<std::size_t>(g.image_elems()));
  cvecf got(want.size());
  fresh.adjoint(raw0.data(), want.data());
  ThreadPool pool(2);
  plan.adjoint(raw0.data(), got.data(), ws, pool);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(cfloat)), 0);

  const cfloat* raws[2] = {raw0.data(), raw1.data()};
  cvecf want_b(2 * want.size());
  cvecf got_b(want_b.size());
  exec::BatchNufft fresh_batch(fresh, 2);
  cfloat* want_out[2] = {want_b.data(), want_b.data() + want.size()};
  cfloat* got_out[2] = {got_b.data(), got_b.data() + want.size()};
  fresh_batch.adjoint(raws, want_out, 2);
  batch.adjoint(raws, got_out, 2);
  EXPECT_EQ(std::memcmp(got_b.data(), want_b.data(), got_b.size() * sizeof(cfloat)), 0);
}

// The no-op short-circuit: bitwise-identical coordinates leave the plan —
// generation included — untouched.
TEST(Streaming, NufftNoopKeepsGeneration) {
  const GridDesc g = make_grid(2, 32, 2.0);
  const auto base = testing::small_trajectory(TrajectoryType::kRandom, 2, 32, 3000);
  PlanConfig cfg = plan_config();
  cfg.threads = 2;
  Nufft plan(g, base, cfg);
  SampleSet same = base;
  EXPECT_EQ(plan.update_samples(same), UpdatePath::kNoop);
  EXPECT_EQ(plan.plan_stats().generation, 0u);
  EXPECT_FALSE(plan.plan_stats().warm_updated);
}

TEST(Streaming, WarmDeriveCtorMatchesFreshAndPreservesSource) {
  const GridDesc g = make_grid(2, 32, 2.0);
  const auto base = testing::small_trajectory(TrajectoryType::kSpiral, 2, 32, 4000);
  PlanConfig cfg = plan_config();
  cfg.threads = 4;
  cfg.variable_partitions = false;
  const SampleSet next = jitter(base, 0.05, 0.75f, 17);

  Nufft src(g, base, cfg);
  const auto image = testing::random_image(g.image_elems(), 8);
  cvecf src_before(static_cast<std::size_t>(base.count()));
  src.forward(image.data(), src_before.data());

  Nufft derived(src, next);
  EXPECT_EQ(derived.plan_stats().generation, 1u);
  EXPECT_TRUE(derived.plan_stats().warm_updated);

  Nufft fresh(g, next, cfg);
  cvecf raw_a(static_cast<std::size_t>(next.count()));
  cvecf raw_b(static_cast<std::size_t>(next.count()));
  derived.forward(image.data(), raw_a.data());
  fresh.forward(image.data(), raw_b.data());
  EXPECT_EQ(testing::max_abs_diff(raw_a.data(), raw_b.data(), next.count()), 0.0);

  // The source plan is untouched by the derivation.
  cvecf src_after(static_cast<std::size_t>(base.count()));
  src.forward(image.data(), src_after.data());
  EXPECT_EQ(testing::max_abs_diff(src_before.data(), src_after.data(), base.count()), 0.0);
}

// --- registry layer -------------------------------------------------------

TEST(Streaming, RegistryUpdatePlanWarmNoopFallback) {
  const GridDesc g = make_grid(2, 32, 2.0);
  const auto base = testing::small_trajectory(TrajectoryType::kRadial, 2, 32, 4000);
  PlanConfig cfg = plan_config();
  cfg.threads = 2;
  cfg.variable_partitions = false;
  exec::PlanRegistry registry;

  const auto plan0 = registry.acquire(g, base, cfg);
  const std::string key0 = exec::PlanRegistry::make_key(g, base, cfg);

  // No-op: identical content, same plan object, no generation bump.
  SampleSet same = base;
  const auto noop = registry.update_plan(g, key0, same, cfg);
  EXPECT_TRUE(noop.noop);
  EXPECT_EQ(noop.plan.get(), plan0.get());
  EXPECT_EQ(noop.plan->plan_stats().generation, 0u);
  EXPECT_EQ(registry.resident_count(), 1u);

  // Warm: small jitter derives a NEW plan from the resident one.
  const SampleSet next = jitter(base, 0.05, 0.75f, 21);
  const auto warm = registry.update_plan(g, key0, next, cfg);
  EXPECT_FALSE(warm.noop);
  EXPECT_TRUE(warm.warm);
  EXPECT_FALSE(warm.fallback);
  EXPECT_NE(warm.plan.get(), plan0.get());
  EXPECT_EQ(warm.plan->plan_stats().generation, 1u);
  EXPECT_TRUE(warm.plan->plan_stats().warm_updated);
  EXPECT_EQ(warm.key, exec::PlanRegistry::make_key(g, next, cfg));
  EXPECT_EQ(registry.resident_count(), 2u);  // old entry stays until LRU
  // The source plan is untouched.
  EXPECT_EQ(plan0->plan_stats().generation, 0u);

  // Fallback: old key not resident → cold build, still registered.
  const SampleSet far = jitter(base, 0.9, 6.0f, 23);
  const auto fb = registry.update_plan(g, "no-such-key", far, cfg);
  EXPECT_FALSE(fb.noop);
  EXPECT_FALSE(fb.warm);
  EXPECT_TRUE(fb.fallback);
  EXPECT_EQ(fb.plan->plan_stats().generation, 0u);

  const auto stats = registry.stats();
  EXPECT_EQ(stats.plan_update_noops, 1u);
  EXPECT_EQ(stats.plan_updates, 2u);
  EXPECT_EQ(stats.plan_update_fallbacks, 1u);
}

TEST(Streaming, RegistryUpdatedPlanIsContentKeyed) {
  // The updated plan must be retrievable by the new content alone — a later
  // acquire of the new trajectory hits the derived entry instead of building.
  const GridDesc g = make_grid(2, 32, 2.0);
  const auto base = testing::small_trajectory(TrajectoryType::kSpiral, 2, 32, 3000);
  PlanConfig cfg = plan_config();
  cfg.threads = 2;
  cfg.variable_partitions = false;
  exec::PlanRegistry registry;
  registry.acquire(g, base, cfg);
  const SampleSet next = jitter(base, 0.05, 0.75f, 29);
  const auto upd = registry.update_plan(g, exec::PlanRegistry::make_key(g, base, cfg), next, cfg);
  const auto hit = registry.acquire(g, next, cfg);
  EXPECT_EQ(hit.get(), upd.plan.get());
  EXPECT_GE(registry.stats().hits, 1u);
}

TEST(Streaming, RegistryUpdateTrueUpOnTenantQuota) {
  // A warm update of a different-sized... size is equal here, but the quota
  // accounting must still charge the tenant for the new entry and keep the
  // old one charged while resident.
  const GridDesc g = make_grid(2, 32, 2.0);
  const auto base = testing::small_trajectory(TrajectoryType::kRandom, 2, 32, 3000);
  PlanConfig cfg = plan_config();
  cfg.threads = 2;
  cfg.variable_partitions = false;
  exec::RegistryConfig rc;
  rc.tenant_max_plans = 8;
  exec::PlanRegistry registry(rc);
  registry.acquire(g, base, cfg, "t0");
  EXPECT_EQ(registry.tenant_plans("t0"), 1u);
  const SampleSet next = jitter(base, 0.05, 0.75f, 31);
  const auto upd =
      registry.update_plan(g, exec::PlanRegistry::make_key(g, base, cfg), next, cfg, "t0");
  EXPECT_TRUE(upd.warm);
  EXPECT_EQ(registry.tenant_plans("t0"), 2u);
  EXPECT_GT(registry.tenant_bytes("t0"), 0u);
}

// --- engine layer ---------------------------------------------------------

TEST(Streaming, EngineSubmitUpdateResolvesResult) {
  const GridDesc g = make_grid(2, 32, 2.0);
  const auto base = testing::small_trajectory(TrajectoryType::kRadial, 2, 32, 3000);
  PlanConfig cfg = plan_config();
  cfg.threads = 1;
  cfg.variable_partitions = false;
  exec::PlanRegistry registry;
  const auto plan0 = registry.acquire(g, base, cfg);

  exec::NufftEngine engine;
  const auto next = std::make_shared<datasets::SampleSet>(jitter(base, 0.05, 0.75f, 37));
  auto result = std::make_shared<exec::PlanUpdateResult>();
  auto fut = engine.submit_update(registry, g, exec::PlanRegistry::make_key(g, base, cfg), next,
                                  cfg, result);
  fut.get();  // no transform ran; an exception here is a failure
  ASSERT_NE(result->plan, nullptr);
  EXPECT_TRUE(result->warm);
  EXPECT_EQ(result->plan->plan_stats().generation, 1u);
  EXPECT_EQ(result->key, exec::PlanRegistry::make_key(g, *next, cfg));

  // The updated plan serves transforms through the engine like any other.
  const auto image = testing::random_image(g.image_elems(), 3);
  cvecf raw_a(static_cast<std::size_t>(next->count()));
  cvecf raw_b(static_cast<std::size_t>(next->count()));
  engine.submit(exec::Op::kForward, result->plan, image.data(), raw_a.data()).get();
  Nufft fresh(g, *next, cfg);
  fresh.forward(image.data(), raw_b.data());
  EXPECT_EQ(testing::max_abs_diff(raw_a.data(), raw_b.data(), next->count()), 0.0);
  engine.shutdown();
}

}  // namespace
}  // namespace nufft
