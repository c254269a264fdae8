// Tests for the batched execution subsystem (src/exec/): BatchNufft
// equivalence against repeated single applies, PlanRegistry single-flight /
// LRU / spill behaviour, and concurrent NufftEngine submission. This
// executable carries the `concurrency` ctest label and is the target of the
// -DNUFFT_SANITIZE=thread build.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <future>
#include <limits>
#include <thread>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "core/convolution_avx2.hpp"
#include "core/nufft.hpp"
#include "datasets/trajectory.hpp"
#include "exec/batch_nufft.hpp"
#include "exec/engine.hpp"
#include "exec/plan_registry.hpp"
#include "test_util.hpp"

namespace nufft {
namespace {

using datasets::TrajectoryType;
using exec::BatchNufft;
using exec::NufftEngine;
using exec::PlanRegistry;

constexpr index_t kBatch = 5;

struct Fixture {
  GridDesc g;
  datasets::SampleSet set;
  std::vector<cvecf> images;  // kBatch random images
  std::vector<cvecf> raws;    // kBatch random sample vectors
};

/// Grids of m = 24/40/96 (Bluestein axes), or of m = 32/64/128 with `pow2`.
Fixture make_fixture(int dim, bool pow2 = false) {
  Fixture f;
  const index_t n = pow2 ? (dim == 3 ? 16 : (dim == 2 ? 32 : 64))
                         : (dim == 3 ? 12 : (dim == 2 ? 20 : 48));
  f.g = make_grid(dim, n, 2.0);
  f.set = testing::small_trajectory(TrajectoryType::kRadial, dim, n, dim == 1 ? 100 : 400);
  for (index_t b = 0; b < kBatch; ++b) {
    f.images.push_back(testing::random_image(f.g.image_elems(), 100 + b));
    f.raws.push_back(testing::random_raw(f.set.count(), 200 + b));
  }
  return f;
}

bool bitwise_equal(const cfloat* a, const cfloat* b, index_t n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(cfloat)) == 0;
}

// --- BatchNufft vs. repeated single applies -------------------------------

class BatchEquivalence : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(BatchEquivalence, ForwardScalarSingleThreadIsBitExact) {
  const auto [dim, chunked] = GetParam();
  Fixture f = make_fixture(dim);
  PlanConfig cfg;
  cfg.use_simd = false;
  cfg.threads = 1;
  Nufft plan(f.g, f.set, cfg);

  std::vector<cvecf> ref(kBatch, cvecf(static_cast<std::size_t>(f.set.count())));
  for (index_t b = 0; b < kBatch; ++b) plan.forward(f.images[b].data(), ref[b].data());

  BatchNufft batch(plan, chunked ? 2 : kBatch);
  std::vector<const cfloat*> in;
  std::vector<cfloat*> out;
  std::vector<cvecf> got(kBatch, cvecf(static_cast<std::size_t>(f.set.count())));
  for (index_t b = 0; b < kBatch; ++b) {
    in.push_back(f.images[b].data());
    out.push_back(got[b].data());
  }
  batch.forward(in.data(), out.data(), kBatch);

  for (index_t b = 0; b < kBatch; ++b) {
    EXPECT_TRUE(bitwise_equal(got[b].data(), ref[b].data(), f.set.count())) << "slice " << b;
  }
}

TEST_P(BatchEquivalence, AdjointScalarSingleThreadIsBitExact) {
  const auto [dim, chunked] = GetParam();
  Fixture f = make_fixture(dim);
  PlanConfig cfg;
  cfg.use_simd = false;
  cfg.threads = 1;
  Nufft plan(f.g, f.set, cfg);

  std::vector<cvecf> ref(kBatch, cvecf(static_cast<std::size_t>(f.g.image_elems())));
  for (index_t b = 0; b < kBatch; ++b) plan.adjoint(f.raws[b].data(), ref[b].data());

  BatchNufft batch(plan, chunked ? 2 : kBatch);
  std::vector<const cfloat*> in;
  std::vector<cfloat*> out;
  std::vector<cvecf> got(kBatch, cvecf(static_cast<std::size_t>(f.g.image_elems())));
  for (index_t b = 0; b < kBatch; ++b) {
    in.push_back(f.raws[b].data());
    out.push_back(got[b].data());
  }
  batch.adjoint(in.data(), out.data(), kBatch);

  for (index_t b = 0; b < kBatch; ++b) {
    EXPECT_TRUE(bitwise_equal(got[b].data(), ref[b].data(), f.g.image_elems()))
        << "slice " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, BatchEquivalence,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Bool()),
                         [](const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
                           return std::to_string(std::get<0>(info.param)) + "d" +
                                  (std::get<1>(info.param) ? "_chunked" : "");
                         });

class BatchSimdEquivalence : public ::testing::TestWithParam<std::tuple<int, SimdIsa>> {};

// The batch-width contract on the SIMD backends: slice b of any batch equals
// its single apply bitwise, forward and adjoint — in one chunk (capacity
// kBatch), in chunks of 2, 2 and 1, and as a one-slice call through either
// workspace (as an engine job of batch 1 may lease a wide one) — on
// Bluestein and power-of-two grids.
TEST_P(BatchSimdEquivalence, MatchesSinglesBitwise) {
  const auto [dim, isa] = GetParam();
  if (isa == SimdIsa::kAvx2 && !avx2_available()) GTEST_SKIP() << "no AVX2";
  for (const bool pow2 : {false, true}) {
    SCOPED_TRACE(pow2 ? "pow2 grid" : "Bluestein grid");
    Fixture f = make_fixture(dim, pow2);
    PlanConfig cfg;
    cfg.use_simd = true;
    cfg.isa = isa;
    cfg.threads = 2;
    Nufft plan(f.g, f.set, cfg);

    std::vector<cvecf> fref(kBatch, cvecf(static_cast<std::size_t>(f.set.count())));
    std::vector<cvecf> aref(kBatch, cvecf(static_cast<std::size_t>(f.g.image_elems())));
    for (index_t b = 0; b < kBatch; ++b) {
      plan.forward(f.images[b].data(), fref[b].data());
      plan.adjoint(f.raws[b].data(), aref[b].data());
    }

    // Contiguous-layout convenience API doubles as the layout test.
    cvecf imgs(static_cast<std::size_t>(kBatch * f.g.image_elems()));
    cvecf raws(static_cast<std::size_t>(kBatch * f.set.count()));
    for (index_t b = 0; b < kBatch; ++b) {
      std::memcpy(imgs.data() + b * f.g.image_elems(), f.images[b].data(),
                  static_cast<std::size_t>(f.g.image_elems()) * sizeof(cfloat));
      std::memcpy(raws.data() + b * f.set.count(), f.raws[b].data(),
                  static_cast<std::size_t>(f.set.count()) * sizeof(cfloat));
    }
    for (const index_t capacity : {kBatch, index_t{2}}) {
      cvecf fgot(static_cast<std::size_t>(kBatch * f.set.count()));
      cvecf agot(static_cast<std::size_t>(kBatch * f.g.image_elems()));
      BatchNufft batch(plan, capacity);
      batch.forward(imgs.data(), fgot.data(), kBatch);
      batch.adjoint(raws.data(), agot.data(), kBatch);
      for (index_t b = 0; b < kBatch; ++b) {
        EXPECT_TRUE(bitwise_equal(fgot.data() + b * f.set.count(), fref[b].data(), f.set.count()))
            << "capacity " << capacity << " fwd slice " << b;
        EXPECT_TRUE(bitwise_equal(agot.data() + b * f.g.image_elems(), aref[b].data(),
                                  f.g.image_elems()))
            << "capacity " << capacity << " adj slice " << b;
      }
      for (index_t b = 0; b < kBatch; ++b) {
        batch.forward(imgs.data() + b * f.g.image_elems(), fgot.data(), 1);
        batch.adjoint(raws.data() + b * f.set.count(), agot.data(), 1);
        EXPECT_TRUE(bitwise_equal(fgot.data(), fref[b].data(), f.set.count()))
            << "capacity " << capacity << " nb=1 fwd " << b;
        EXPECT_TRUE(bitwise_equal(agot.data(), aref[b].data(), f.g.image_elems()))
            << "capacity " << capacity << " nb=1 adj " << b;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DimsIsa, BatchSimdEquivalence,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(SimdIsa::kSse, SimdIsa::kAvx2)),
                         [](const ::testing::TestParamInfo<std::tuple<int, SimdIsa>>& info) {
                           return std::to_string(std::get<0>(info.param)) + "d_" +
                                  (std::get<1>(info.param) == SimdIsa::kSse ? "sse" : "avx2");
                         });

// --- PlanRegistry ----------------------------------------------------------

TEST(PlanRegistry, SingleFlightDeduplicatesConcurrentBuilds) {
  Fixture f = make_fixture(2);
  PlanConfig cfg;
  cfg.threads = 1;
  PlanRegistry registry;

  constexpr int kRequesters = 8;
  std::vector<std::shared_ptr<const Nufft>> plans(kRequesters);
  {
    std::vector<std::thread> threads;
    std::atomic<int> ready{0};
    for (int t = 0; t < kRequesters; ++t) {
      threads.emplace_back([&, t] {
        ++ready;
        while (ready.load() < kRequesters) std::this_thread::yield();
        plans[static_cast<std::size_t>(t)] = registry.acquire(f.g, f.set, cfg);
      });
    }
    for (auto& t : threads) t.join();
  }

  for (int t = 1; t < kRequesters; ++t) {
    EXPECT_EQ(plans[static_cast<std::size_t>(t)].get(), plans[0].get());
  }
  const auto st = registry.stats();
  EXPECT_EQ(st.misses, 1u);  // exactly one build
  EXPECT_EQ(st.hits, static_cast<std::uint64_t>(kRequesters - 1));
  EXPECT_EQ(registry.resident_count(), 1u);
  EXPECT_GT(registry.resident_bytes(), 0u);
}

TEST(PlanRegistry, DistinctConfigsGetDistinctPlans) {
  Fixture f = make_fixture(2);
  PlanRegistry registry;
  PlanConfig a;
  a.threads = 1;
  PlanConfig b = a;
  b.kernel_radius = 3.0;
  const auto pa = registry.acquire(f.g, f.set, a);
  const auto pb = registry.acquire(f.g, f.set, b);
  EXPECT_NE(pa.get(), pb.get());
  EXPECT_EQ(registry.resident_count(), 2u);
  EXPECT_EQ(registry.acquire(f.g, f.set, a).get(), pa.get());
}

TEST(PlanRegistry, KernelFamilyIsPartOfPlanIdentity) {
  // Kaiser-Bessel and exponential-of-semicircle plans over the same grid and
  // trajectory must never alias — the kernel family, radius, LUT density and
  // weight evaluator are all part of the content hash.
  Fixture f = make_fixture(2);
  PlanRegistry registry;
  PlanConfig kb;
  kb.threads = 1;
  PlanConfig es = kb;
  es.kernel = kernels::KernelType::kEs;
  es.eval = kernels::KernelEval::kHorner;
  EXPECT_NE(PlanRegistry::make_key(f.g, f.set, kb), PlanRegistry::make_key(f.g, f.set, es));

  const auto pa = registry.acquire(f.g, f.set, kb);
  const auto pb = registry.acquire(f.g, f.set, es);
  EXPECT_NE(pa.get(), pb.get());
  EXPECT_EQ(registry.resident_count(), 2u);
  // Re-acquiring each family hits its own entry.
  EXPECT_EQ(registry.acquire(f.g, f.set, kb).get(), pa.get());
  EXPECT_EQ(registry.acquire(f.g, f.set, es).get(), pb.get());

  // Tolerance-driven configs key on the tolerance too: the same family at a
  // different tolerance is a different plan.
  PlanConfig tol_a = kb;
  tol_a.tolerance = 1e-3;
  PlanConfig tol_b = kb;
  tol_b.tolerance = 1e-4;
  EXPECT_NE(PlanRegistry::make_key(f.g, f.set, tol_a),
            PlanRegistry::make_key(f.g, f.set, tol_b));
}

TEST(PlanRegistry, LruEvictionSpillsAndRestores) {
  Fixture f = make_fixture(2);
  const auto set2 =
      testing::small_trajectory(TrajectoryType::kSpiral, 2, f.g.n[0], 400);
  PlanConfig cfg;
  cfg.threads = 1;

  const auto dir =
      std::filesystem::temp_directory_path() / "nufft_registry_spill_test";
  std::filesystem::remove_all(dir);
  exec::RegistryConfig rc;
  rc.max_bytes = 1;  // every second resident plan forces an eviction
  rc.spill_dir = dir.string();
  PlanRegistry registry(rc);

  cvecf ref(static_cast<std::size_t>(f.set.count()));
  {
    const auto plan_a = registry.acquire(f.g, f.set, cfg);
    Workspace ws = plan_a->make_workspace();
    ThreadPool pool(1);
    plan_a->forward(f.images[0].data(), ref.data(), ws, pool);
  }
  // Second key exceeds the 1-byte budget: the LRU entry (plan A) is evicted
  // and, because a spill_dir is set, serialized to disk.
  registry.acquire(f.g, set2, cfg);
  auto st = registry.stats();
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.spills, 1u);
  EXPECT_EQ(registry.resident_count(), 1u);

  // Re-acquiring plan A restores the preprocessing from the spill file and
  // produces the same transform.
  const auto plan_a2 = registry.acquire(f.g, f.set, cfg);
  st = registry.stats();
  EXPECT_EQ(st.spill_restores, 1u);
  cvecf got(static_cast<std::size_t>(f.set.count()));
  Workspace ws = plan_a2->make_workspace();
  ThreadPool pool(1);
  plan_a2->forward(f.images[0].data(), got.data(), ws, pool);
  EXPECT_TRUE(bitwise_equal(got.data(), ref.data(), f.set.count()));

  std::filesystem::remove_all(dir);
}

TEST(PlanRegistry, KeyIsOrderAndContentSensitive) {
  Fixture f = make_fixture(2);
  PlanConfig cfg;
  datasets::SampleSet reordered = f.set;
  std::swap(reordered.coords[0][0], reordered.coords[0][1]);
  std::swap(reordered.coords[1][0], reordered.coords[1][1]);
  EXPECT_NE(PlanRegistry::make_key(f.g, f.set, cfg),
            PlanRegistry::make_key(f.g, reordered, cfg));
  PlanConfig cfg2 = cfg;
  cfg2.priority_queue = false;
  EXPECT_NE(PlanRegistry::make_key(f.g, f.set, cfg),
            PlanRegistry::make_key(f.g, f.set, cfg2));
  EXPECT_EQ(PlanRegistry::make_key(f.g, f.set, cfg), PlanRegistry::make_key(f.g, f.set, cfg));
}

// --- NufftEngine -----------------------------------------------------------

TEST(NufftEngine, ConcurrentSubmitMatchesSequentialBitwise) {
  Fixture f = make_fixture(3);
  PlanConfig cfg;
  cfg.threads = 1;
  auto plan = std::make_shared<const Nufft>(f.g, f.set, cfg);

  // Sequential reference through the same leased-workspace path.
  std::vector<cvecf> fref(kBatch, cvecf(static_cast<std::size_t>(f.set.count())));
  std::vector<cvecf> aref(kBatch, cvecf(static_cast<std::size_t>(f.g.image_elems())));
  {
    Workspace ws = plan->make_workspace();
    ThreadPool pool(1);
    for (index_t b = 0; b < kBatch; ++b) {
      plan->forward(f.images[b].data(), fref[b].data(), ws, pool);
      plan->adjoint(f.raws[b].data(), aref[b].data(), ws, pool);
    }
  }

  exec::EngineConfig ec;
  ec.workers = 2;
  ec.threads_per_worker = 1;
  NufftEngine engine(ec);

  // Two application threads race submissions against one shared plan.
  std::vector<cvecf> fgot(kBatch, cvecf(static_cast<std::size_t>(f.set.count())));
  std::vector<cvecf> agot(kBatch, cvecf(static_cast<std::size_t>(f.g.image_elems())));
  std::vector<std::future<exec::JobResult>> futs(2 * kBatch);
  {
    std::vector<std::thread> submitters;
    submitters.emplace_back([&] {
      for (index_t b = 0; b < kBatch; ++b) {
        futs[static_cast<std::size_t>(b)] = engine.submit(
            exec::Op::kForward, plan, f.images[b].data(), fgot[b].data());
      }
    });
    submitters.emplace_back([&] {
      for (index_t b = 0; b < kBatch; ++b) {
        futs[static_cast<std::size_t>(kBatch + b)] = engine.submit(
            exec::Op::kAdjoint, plan, f.raws[b].data(), agot[b].data());
      }
    });
    for (auto& t : submitters) t.join();
  }
  for (auto& fut : futs) {
    const auto r = fut.get();
    EXPECT_GT(r.stats.total_s, 0.0);
  }
  engine.wait_idle();

  for (index_t b = 0; b < kBatch; ++b) {
    EXPECT_TRUE(bitwise_equal(fgot[b].data(), fref[b].data(), f.set.count()))
        << "fwd job " << b;
    EXPECT_TRUE(bitwise_equal(agot[b].data(), aref[b].data(), f.g.image_elems()))
        << "adj job " << b;
  }
}

TEST(NufftEngine, BatchedJobsMatchSingles) {
  Fixture f = make_fixture(2);
  PlanConfig cfg;
  cfg.threads = 1;
  auto plan = std::make_shared<const Nufft>(f.g, f.set, cfg);

  std::vector<cvecf> ref(kBatch, cvecf(static_cast<std::size_t>(f.set.count())));
  {
    Workspace ws = plan->make_workspace();
    ThreadPool pool(1);
    for (index_t b = 0; b < kBatch; ++b) {
      plan->forward(f.images[b].data(), ref[b].data(), ws, pool);
    }
  }

  cvecf imgs(static_cast<std::size_t>(kBatch * f.g.image_elems()));
  for (index_t b = 0; b < kBatch; ++b) {
    std::memcpy(imgs.data() + b * f.g.image_elems(), f.images[b].data(),
                static_cast<std::size_t>(f.g.image_elems()) * sizeof(cfloat));
  }
  cvecf got(static_cast<std::size_t>(kBatch * f.set.count()));

  NufftEngine engine;
  auto fut = engine.submit(exec::Op::kForward, plan, imgs.data(), got.data(), kBatch);
  const auto r = fut.get();
  EXPECT_GT(r.stats.total_s, 0.0);
  for (index_t b = 0; b < kBatch; ++b) {
    EXPECT_TRUE(bitwise_equal(got.data() + b * f.set.count(), ref[b].data(), f.set.count()))
        << "slice " << b;
  }
}

TEST(NufftEngine, LeasePoolsReleaseSupersededPlanVersions) {
  // The lease pools pin every plan they hold buffers for; once the caller
  // drops an old plan version the pin is its only owner, and the next lease
  // must release it rather than keep every version alive for the engine's
  // lifetime.
  Fixture f = make_fixture(2);
  PlanConfig cfg;
  cfg.threads = 1;
  exec::EngineConfig ec;
  ec.workers = 1;  // jobs run one after another, so no job still holds a version
  NufftEngine engine(ec);

  cvecf imgs(static_cast<std::size_t>(kBatch * f.g.image_elems()));
  cvecf raws(static_cast<std::size_t>(kBatch * f.set.count()));
  auto plan = std::make_shared<const Nufft>(f.g, f.set, cfg);
  std::vector<std::weak_ptr<const Nufft>> dropped;
  datasets::SampleSet frame = f.set;
  for (int version = 0; version < 3; ++version) {
    // Lease both kinds of apply state: a workspace and a batch.
    engine.submit(exec::Op::kForward, plan, imgs.data(), raws.data()).get();
    engine.submit(exec::Op::kAdjoint, plan, raws.data(), imgs.data(), kBatch).get();
    // Every version dropped before this one's leases has been released.
    for (const auto& old : dropped) EXPECT_TRUE(old.expired()) << "version " << version;
    dropped.push_back(plan);
    frame.coords[0][0] = std::fmod(frame.coords[0][0] + 0.25f, static_cast<float>(frame.m));
    plan = std::make_shared<const Nufft>(*plan, frame);  // warm-derived next version
    EXPECT_EQ(plan->plan_stats().generation, static_cast<std::uint64_t>(version + 1));
  }
  // The last dropped version stays pinned until the next lease.
  EXPECT_FALSE(dropped.back().expired());
  engine.submit(exec::Op::kForward, plan, imgs.data(), raws.data()).get();
  for (const auto& old : dropped) EXPECT_TRUE(old.expired()) << "a superseded version is pinned";
}

// --- Failure handling ------------------------------------------------------

// A sample set whose first coordinate is NaN: plan construction fails
// deterministically with kInvalidInput, giving the failure-path tests a
// reproducible "broken build" without compiled-in fault injection.
datasets::SampleSet poisoned_set(const Fixture& f) {
  datasets::SampleSet bad = f.set;
  bad.coords[0][0] = std::numeric_limits<float>::quiet_NaN();
  return bad;
}

ErrorCode future_error_code(std::future<exec::JobResult>& fut) {
  try {
    fut.get();
  } catch (const Error& e) {
    return e.code();
  }
  ADD_FAILURE() << "job unexpectedly succeeded";
  return ErrorCode::kInternal;
}

TEST(PlanRegistry, FailedBuildPropagatesToAllWaitersAndLeavesRegistryUsable) {
  Fixture f = make_fixture(2);
  const auto bad = poisoned_set(f);
  PlanConfig cfg;
  cfg.threads = 1;
  PlanRegistry registry;

  // Every concurrent requester of the doomed key must observe the build
  // error — whether it ran the build itself, waited on the single-flight
  // future, or was rejected by quarantine after the threshold.
  constexpr int kRequesters = 6;
  std::atomic<int> invalid_input{0};
  {
    std::vector<std::thread> threads;
    std::atomic<int> ready{0};
    for (int t = 0; t < kRequesters; ++t) {
      threads.emplace_back([&] {
        ++ready;
        while (ready.load() < kRequesters) std::this_thread::yield();
        try {
          registry.acquire(f.g, bad, cfg);
        } catch (const Error& e) {
          if (e.code() == ErrorCode::kInvalidInput) ++invalid_input;
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  EXPECT_EQ(invalid_input.load(), kRequesters);
  EXPECT_GE(registry.stats().build_failures, 1u);

  // The failure never cached: the registry is empty and still serves good
  // keys.
  EXPECT_EQ(registry.resident_count(), 0u);
  EXPECT_NE(registry.acquire(f.g, f.set, cfg), nullptr);
  EXPECT_EQ(registry.resident_count(), 1u);
}

TEST(PlanRegistry, RepeatedFailuresQuarantineTheKey) {
  Fixture f = make_fixture(2);
  const auto bad = poisoned_set(f);
  PlanConfig cfg;
  cfg.threads = 1;
  exec::RegistryConfig rc;
  rc.quarantine_threshold = 2;
  rc.quarantine_base_backoff = std::chrono::milliseconds{60000};  // outlasts the test
  PlanRegistry registry(rc);

  for (int i = 0; i < rc.quarantine_threshold; ++i) {
    EXPECT_THROW(registry.acquire(f.g, bad, cfg), Error) << "attempt " << i;
  }
  // Inside the backoff window the key fails fast — with the original code,
  // without re-running the build.
  try {
    registry.acquire(f.g, bad, cfg);
    FAIL() << "expected quarantine rejection";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
  }
  const auto st = registry.stats();
  EXPECT_EQ(st.build_failures, static_cast<std::uint64_t>(rc.quarantine_threshold));
  EXPECT_EQ(st.quarantine_rejects, 1u);
  EXPECT_EQ(st.misses, static_cast<std::uint64_t>(rc.quarantine_threshold));

  // Quarantine is per-key: other keys build normally.
  EXPECT_NE(registry.acquire(f.g, f.set, cfg), nullptr);
}

TEST(NufftEngine, SubmitAfterShutdownResolvesCancelled) {
  Fixture f = make_fixture(2);
  PlanConfig cfg;
  cfg.threads = 1;
  auto plan = std::make_shared<const Nufft>(f.g, f.set, cfg);
  cvecf got(static_cast<std::size_t>(f.set.count()));

  NufftEngine engine;
  engine.shutdown();
  auto fut = engine.submit(exec::Op::kForward, plan, f.images[0].data(), got.data());
  EXPECT_EQ(future_error_code(fut), ErrorCode::kCancelled);
}

TEST(NufftEngine, ShutdownVsSubmitRaceIsSafe) {
  Fixture f = make_fixture(2);
  PlanConfig cfg;
  cfg.threads = 1;
  auto plan = std::make_shared<const Nufft>(f.g, f.set, cfg);

  // Submitters race the shutdown: each job either ran (valid result) or was
  // rejected with kCancelled — never a crash, hang, or leaked promise.
  constexpr int kSubmitters = 3;
  constexpr index_t kJobs = 6;
  std::vector<cvecf> outs(static_cast<std::size_t>(kSubmitters * kJobs),
                          cvecf(static_cast<std::size_t>(f.set.count())));
  std::vector<std::future<exec::JobResult>> futs(static_cast<std::size_t>(kSubmitters * kJobs));
  NufftEngine engine;
  {
    std::vector<std::thread> threads;
    std::atomic<int> ready{0};
    for (int t = 0; t < kSubmitters; ++t) {
      threads.emplace_back([&, t] {
        ++ready;
        while (ready.load() < kSubmitters + 1) std::this_thread::yield();
        for (index_t j = 0; j < kJobs; ++j) {
          const auto slot = static_cast<std::size_t>(t * kJobs + j);
          futs[slot] = engine.submit(exec::Op::kForward, plan, f.images[0].data(),
                                     outs[slot].data());
        }
      });
    }
    threads.emplace_back([&] {
      ++ready;
      while (ready.load() < kSubmitters + 1) std::this_thread::yield();
      engine.shutdown();
    });
    for (auto& t : threads) t.join();
  }

  int ran = 0, cancelled = 0;
  for (auto& fut : futs) {
    try {
      fut.get();
      ++ran;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCancelled);
      ++cancelled;
    }
  }
  EXPECT_EQ(ran + cancelled, kSubmitters * static_cast<int>(kJobs));
}

TEST(NufftEngine, PreCancelledTokenResolvesCancelled) {
  Fixture f = make_fixture(2);
  PlanConfig cfg;
  cfg.threads = 1;
  auto plan = std::make_shared<const Nufft>(f.g, f.set, cfg);
  cvecf got(static_cast<std::size_t>(f.set.count()));

  exec::JobOptions opts;
  opts.cancel = std::make_shared<exec::CancelToken>();
  opts.cancel->cancel();
  NufftEngine engine;
  auto fut = engine.submit(exec::Op::kForward, plan, f.images[0].data(), got.data(), 1, opts);
  EXPECT_EQ(future_error_code(fut), ErrorCode::kCancelled);
}

TEST(NufftEngine, ZeroTimeoutResolvesTimeout) {
  Fixture f = make_fixture(2);
  PlanConfig cfg;
  cfg.threads = 1;
  auto plan = std::make_shared<const Nufft>(f.g, f.set, cfg);
  cvecf got(static_cast<std::size_t>(f.set.count()));

  // timeout == 0 stamps a deadline that is already expired at dispatch, so
  // the timeout path is deterministic even on an arbitrarily fast machine.
  exec::JobOptions opts;
  opts.timeout = std::chrono::milliseconds{0};
  NufftEngine engine;
  auto fut = engine.submit(exec::Op::kForward, plan, f.images[0].data(), got.data(), 1, opts);
  EXPECT_EQ(future_error_code(fut), ErrorCode::kTimeout);
}

TEST(NufftEngine, RegistryBuildFailureReachesTheFuture) {
  Fixture f = make_fixture(2);
  PlanConfig cfg;
  cfg.threads = 1;
  PlanRegistry registry;
  auto bad = std::make_shared<const datasets::SampleSet>(poisoned_set(f));
  cvecf got(static_cast<std::size_t>(f.set.count()));

  NufftEngine engine;
  auto fut =
      engine.submit(exec::Op::kForward, registry, f.g, bad, cfg, f.images[0].data(), got.data());
  EXPECT_EQ(future_error_code(fut), ErrorCode::kInvalidInput);

  // The same engine and registry still serve good work afterwards.
  auto samples = std::make_shared<const datasets::SampleSet>(f.set);
  auto ok = engine.submit(exec::Op::kForward, registry, f.g, samples, cfg, f.images[0].data(),
                          got.data());
  EXPECT_GT(ok.get().stats.total_s, 0.0);
}

TEST(NufftEngine, RegistrySubmitResolvesPlanInWorker) {
  Fixture f = make_fixture(2);
  PlanConfig cfg;
  cfg.threads = 1;
  PlanRegistry registry;
  auto samples = std::make_shared<const datasets::SampleSet>(f.set);

  cvecf got(static_cast<std::size_t>(f.set.count()));
  NufftEngine engine;
  auto fut = engine.submit(exec::Op::kForward, registry, f.g, samples, cfg,
                           f.images[0].data(), got.data());
  fut.get();
  EXPECT_EQ(registry.stats().misses, 1u);

  const auto plan = registry.acquire(f.g, f.set, cfg);
  cvecf ref(static_cast<std::size_t>(f.set.count()));
  Workspace ws = plan->make_workspace();
  ThreadPool pool(1);
  plan->forward(f.images[0].data(), ref.data(), ws, pool);
  EXPECT_TRUE(bitwise_equal(got.data(), ref.data(), f.set.count()));
}

TEST(NufftEngine, ConcurrentShutdownsAndSubmitsAreSafe) {
  // Regression for the engine's join race: shutdown() used to call
  // std::thread::join unguarded, so "destructor while another thread calls
  // shutdown()" — the natural server teardown sequence — was a data race on
  // the join flag (TSan-visible) and double-join UB. With std::call_once
  // every concurrent shutdown caller blocks until the single drain finishes.
  Fixture f = make_fixture(2);
  PlanConfig cfg;
  cfg.threads = 1;
  auto plan = std::make_shared<const Nufft>(f.g, f.set, cfg);

  for (int round = 0; round < 4; ++round) {
    constexpr int kShutdowns = 3;
    constexpr int kSubmitters = 2;
    constexpr index_t kJobs = 4;
    std::vector<cvecf> outs(static_cast<std::size_t>(kSubmitters * kJobs),
                            cvecf(static_cast<std::size_t>(f.set.count())));
    NufftEngine engine;
    std::vector<std::thread> threads;
    std::atomic<int> ready{0};
    const int parties = kShutdowns + kSubmitters;
    for (int t = 0; t < kShutdowns; ++t) {
      threads.emplace_back([&] {
        ++ready;
        while (ready.load() < parties) std::this_thread::yield();
        engine.shutdown();
        // After shutdown returns, submissions must reject deterministically.
        cvecf post(static_cast<std::size_t>(f.set.count()));
        auto fut = engine.submit(exec::Op::kForward, plan, f.images[0].data(), post.data());
        EXPECT_EQ(future_error_code(fut), ErrorCode::kCancelled);
      });
    }
    std::atomic<int> completed{0};
    for (int t = 0; t < kSubmitters; ++t) {
      threads.emplace_back([&, t] {
        ++ready;
        while (ready.load() < parties) std::this_thread::yield();
        for (index_t j = 0; j < kJobs; ++j) {
          exec::JobOptions opts;
          opts.on_complete = [&] { ++completed; };
          auto fut = engine.submit(exec::Op::kForward, plan, f.images[0].data(),
                                   outs[static_cast<std::size_t>(t * kJobs + j)].data(), 1,
                                   opts);
          try {
            fut.get();
          } catch (const Error& e) {
            EXPECT_EQ(e.code(), ErrorCode::kCancelled);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    // on_complete fires exactly once per job on every path, including the
    // submit-after-shutdown rejection.
    EXPECT_EQ(completed.load(), kSubmitters * kJobs);
  }
}

// --- tenant quota accounting ------------------------------------------------

TEST(PlanRegistryQuota, ByteAndPlanBudgetsRejectAsOverloaded) {
  Fixture f = make_fixture(2);
  PlanConfig cfg;
  cfg.threads = 1;
  exec::RegistryConfig rc;
  rc.tenant_max_plans = 1;
  PlanRegistry registry(rc);

  auto plan = registry.acquire(f.g, f.set, cfg, "a");
  EXPECT_EQ(registry.tenant_plans("a"), 1u);
  EXPECT_GT(registry.tenant_bytes("a"), 0u);

  // Re-acquiring the same key is not a second charge.
  auto again = registry.acquire(f.g, f.set, cfg, "a");
  EXPECT_EQ(plan.get(), again.get());
  EXPECT_EQ(registry.tenant_plans("a"), 1u);

  // A second distinct key busts tenant a's plan quota …
  PlanConfig cfg2 = cfg;
  cfg2.reorder = !cfg.reorder;
  try {
    registry.acquire(f.g, f.set, cfg2, "a");
    FAIL() << "expected quota rejection";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kOverloaded);
  }
  EXPECT_EQ(registry.stats().quota_rejects, 1u);

  // … while tenant b and the unmetered empty tenant are unaffected.
  auto other = registry.acquire(f.g, f.set, cfg2, "b");
  EXPECT_NE(other.get(), plan.get());
  auto unmetered = registry.acquire(f.g, f.set, cfg, "");
  EXPECT_EQ(unmetered.get(), plan.get());
  EXPECT_EQ(registry.tenant_plans(""), 0u);

  // Byte quotas reject the same way when the reservation cannot fit.
  exec::RegistryConfig tiny;
  tiny.tenant_max_bytes = 1;
  PlanRegistry small(tiny);
  try {
    small.acquire(f.g, f.set, cfg, "c");
    FAIL() << "expected byte-quota rejection";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kOverloaded);
  }
  EXPECT_EQ(small.tenant_bytes("c"), 0u);
}

TEST(PlanRegistryQuota, FailedBuildQuarantineAndEvictionAllReleaseCharges) {
  // The full lifecycle the quota fix pins: a failing build must refund its
  // reservation (it used to leak, wedging the tenant even though no plan
  // existed), quarantined retries must not accumulate charges, and LRU
  // eviction of a ready entry must release its tenant charges.
  Fixture f = make_fixture(2);
  const auto bad = poisoned_set(f);
  PlanConfig cfg;
  cfg.threads = 1;
  exec::RegistryConfig rc;
  rc.tenant_max_plans = 2;
  rc.quarantine_threshold = 2;
  rc.quarantine_base_backoff = std::chrono::milliseconds{60000};  // outlasts the test
  PlanRegistry registry(rc);

  // Build-fail cycle: every attempt (real builds and quarantine fast-fails)
  // charges the reservation at admission and refunds it on the way out.
  for (int i = 0; i < 4; ++i) {
    EXPECT_THROW(registry.acquire(f.g, bad, cfg, "t"), Error) << "attempt " << i;
    EXPECT_EQ(registry.tenant_bytes("t"), 0u) << "attempt " << i;
    EXPECT_EQ(registry.tenant_plans("t"), 0u) << "attempt " << i;
  }
  EXPECT_GE(registry.stats().quarantine_rejects, 1u);

  // The tenant's quota is fully available: two healthy plans fit.
  auto p1 = registry.acquire(f.g, f.set, cfg, "t");
  PlanConfig cfg2 = cfg;
  cfg2.reorder = !cfg.reorder;
  auto p2 = registry.acquire(f.g, f.set, cfg2, "t");
  EXPECT_EQ(registry.tenant_plans("t"), 2u);
  const auto charged = registry.tenant_bytes("t");
  EXPECT_GT(charged, 0u);

  // Shrink the byte budget so the next insert evicts the LRU entry (p1);
  // its charge against the tenant must be released with it.
  exec::RegistryConfig lru;
  lru.tenant_max_plans = 4;
  lru.max_bytes = 1;  // evict everything not just inserted
  PlanRegistry evicting(lru);
  evicting.acquire(f.g, f.set, cfg, "t");
  EXPECT_EQ(evicting.tenant_plans("t"), 1u);
  evicting.acquire(f.g, f.set, cfg2, "t");  // evicts the first entry
  EXPECT_EQ(evicting.stats().evictions, 1u);
  EXPECT_EQ(evicting.tenant_plans("t"), 1u)
      << "eviction must release the evicted entry's quota charge";
  EXPECT_EQ(evicting.tenant_bytes("t"), evicting.resident_bytes());
}

TEST(PlanRegistryQuota, EvictionDefersRefundWhileHandlesAreHeld) {
  // The quota-bypass fix: LRU eviction drops only the registry's reference,
  // so a tenant whose handles keep the plan resident must stay charged until
  // the last handle dies. Without this, register → evict → register cycles
  // would pin arbitrarily more memory than tenant_max_bytes/plans admit.
  Fixture f = make_fixture(2);
  PlanConfig cfg;
  cfg.threads = 1;
  PlanConfig cfg2 = cfg;
  cfg2.reorder = !cfg.reorder;
  PlanConfig cfg3 = cfg;
  cfg3.use_simd = !cfg.use_simd;

  exec::RegistryConfig rc;
  rc.max_bytes = 1;         // every insert evicts the previous entry
  rc.tenant_max_plans = 2;  // the budget the eviction cycle used to escape
  PlanRegistry registry(rc);

  auto held = registry.acquire(f.g, f.set, cfg, "t");
  registry.acquire(f.g, f.set, cfg2, "t");  // evicts key 1; `held` keeps it alive
  EXPECT_EQ(registry.stats().evictions, 1u);
  EXPECT_EQ(registry.tenant_plans("t"), 2u)
      << "a held handle must stay charged across eviction";
  EXPECT_GT(registry.tenant_bytes("t"), registry.resident_bytes());

  // The quota still binds while the evicted plan is held.
  try {
    registry.acquire(f.g, f.set, cfg3, "t");
    FAIL() << "expected quota rejection while the evicted plan is still held";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kOverloaded);
  }

  // Dropping the last handle releases the deferred charge and unblocks the
  // tenant (the third key evicts the unheld second, whose refund is instant).
  held.reset();
  EXPECT_EQ(registry.tenant_plans("t"), 1u);
  EXPECT_EQ(registry.tenant_bytes("t"), registry.resident_bytes());
  auto third = registry.acquire(f.g, f.set, cfg3, "t");
  EXPECT_NE(third, nullptr);
  EXPECT_EQ(registry.tenant_plans("t"), 1u);
  EXPECT_EQ(registry.tenant_bytes("t"), registry.resident_bytes());
}

}  // namespace
}  // namespace nufft
