// Fault-injection suite (ctest label: faults). Only built when the
// NUFFT_FAULT_INJECT CMake option compiles the hooks in (common/fault.hpp);
// each test arms a named site and checks that the library degrades, retries,
// or fails with the documented ErrorCode instead of crashing or caching a
// broken state.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "core/nufft.hpp"
#include "core/preprocess.hpp"
#include "datasets/trajectory.hpp"
#include "exec/batch_nufft.hpp"
#include "exec/engine.hpp"
#include "exec/plan_registry.hpp"
#include "parallel/thread_pool.hpp"
#include "test_util.hpp"

static_assert(nufft::fault::enabled(),
              "test_faults.cpp requires -DNUFFT_FAULT_INJECT=ON");

namespace nufft {
namespace {

using datasets::TrajectoryType;
using exec::BatchNufft;
using exec::NufftEngine;
using exec::PlanRegistry;

constexpr index_t kBatch = 4;

struct Fixture {
  GridDesc g;
  datasets::SampleSet set;
  std::vector<cvecf> images;
  std::vector<cvecf> raws;
};

Fixture make_fixture(int dim = 2) {
  Fixture f;
  const index_t n = dim == 3 ? 12 : 20;
  f.g = make_grid(dim, n, 2.0);
  f.set = testing::small_trajectory(TrajectoryType::kRadial, dim, n, 400);
  for (index_t b = 0; b < kBatch; ++b) {
    f.images.push_back(testing::random_image(f.g.image_elems(), 100 + b));
    f.raws.push_back(testing::random_raw(f.set.count(), 200 + b));
  }
  return f;
}

bool bitwise_equal(const cfloat* a, const cfloat* b, index_t n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(cfloat)) == 0;
}

// Every test starts and ends with all sites disarmed, so an armed trigger
// can never leak across tests.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::reset(); }
  void TearDown() override { fault::reset(); }
};

// --- PlanRegistry ----------------------------------------------------------

TEST_F(FaultTest, RegistryBuildFaultNeverCaches) {
  Fixture f = make_fixture();
  PlanConfig cfg;
  cfg.threads = 1;
  PlanRegistry registry;

  fault::arm("registry.build", 1);
  try {
    registry.acquire(f.g, f.set, cfg);
    FAIL() << "expected injected build failure";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBuildFailure);
  }
  EXPECT_EQ(registry.resident_count(), 0u);
  EXPECT_EQ(registry.stats().build_failures, 1u);

  // The trigger is consumed: the next acquire of the same key rebuilds.
  EXPECT_NE(registry.acquire(f.g, f.set, cfg), nullptr);
  EXPECT_EQ(registry.resident_count(), 1u);
}

TEST_F(FaultTest, SingleFlightWaitersObserveInjectedFault) {
  Fixture f = make_fixture();
  PlanConfig cfg;
  cfg.threads = 1;
  PlanRegistry registry;

  fault::arm("registry.build", 1);
  constexpr int kRequesters = 6;
  std::atomic<int> failed{0}, succeeded{0};
  {
    std::vector<std::thread> threads;
    std::atomic<int> ready{0};
    for (int t = 0; t < kRequesters; ++t) {
      threads.emplace_back([&] {
        ++ready;
        while (ready.load() < kRequesters) std::this_thread::yield();
        try {
          if (registry.acquire(f.g, f.set, cfg) != nullptr) ++succeeded;
        } catch (const Error& e) {
          EXPECT_EQ(e.code(), ErrorCode::kBuildFailure);
          ++failed;
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  // Exactly one build consumed the trigger; its own requester and every
  // single-flight waiter of that attempt saw the error, later requesters
  // rebuilt cleanly.
  EXPECT_GE(failed.load(), 1);
  EXPECT_EQ(failed.load() + succeeded.load(), kRequesters);
  EXPECT_EQ(fault::fired("registry.build"), 1u);
  // Whatever the interleaving, the registry ends usable.
  EXPECT_NE(registry.acquire(f.g, f.set, cfg), nullptr);
}

TEST_F(FaultTest, CorruptSpillFallsBackToRebuildBitIdentically) {
  Fixture f = make_fixture();
  const auto set2 = testing::small_trajectory(TrajectoryType::kSpiral, 2, f.g.n[0], 400);
  PlanConfig cfg;
  cfg.threads = 1;

  const auto dir = std::filesystem::temp_directory_path() / "nufft_fault_spill_test";
  std::filesystem::remove_all(dir);
  exec::RegistryConfig rc;
  rc.max_bytes = 1;  // every second plan forces an eviction
  rc.spill_dir = dir.string();
  PlanRegistry registry(rc);

  cvecf ref(static_cast<std::size_t>(f.set.count()));
  {
    const auto plan_a = registry.acquire(f.g, f.set, cfg);
    Workspace ws = plan_a->make_workspace();
    ThreadPool pool(1);
    plan_a->forward(f.images[0].data(), ref.data(), ws, pool);
  }

  // Evicting A writes the spill file, then the armed site corrupts it.
  fault::arm("registry.spill.corrupt", 1);
  registry.acquire(f.g, set2, cfg);
  EXPECT_EQ(fault::fired("registry.spill.corrupt"), 1u);

  // Restoring A detects the corruption, deletes the file, and rebuilds —
  // with results bit-identical to the original build.
  const auto plan_a2 = registry.acquire(f.g, f.set, cfg);
  const auto st = registry.stats();
  EXPECT_EQ(st.corrupt_spills, 1u);
  EXPECT_EQ(st.spill_restores, 0u);
  cvecf got(static_cast<std::size_t>(f.set.count()));
  Workspace ws = plan_a2->make_workspace();
  ThreadPool pool(1);
  plan_a2->forward(f.images[0].data(), got.data(), ws, pool);
  EXPECT_TRUE(bitwise_equal(got.data(), ref.data(), f.set.count()));

  std::filesystem::remove_all(dir);
}

TEST_F(FaultTest, EnvSpecArmsSites) {
  Fixture f = make_fixture();
  PlanConfig cfg;
  cfg.threads = 1;
  PlanRegistry registry;

  ::setenv("NUFFT_FAULT", "registry.build:1", 1);
  fault::reset();  // re-read the environment on the next hit
  EXPECT_THROW(registry.acquire(f.g, f.set, cfg), Error);
  ::unsetenv("NUFFT_FAULT");
  fault::reset();
  EXPECT_NE(registry.acquire(f.g, f.set, cfg), nullptr);
}

// --- NufftEngine -----------------------------------------------------------

TEST_F(FaultTest, ApplyFaultDoesNotPoisonLeases) {
  Fixture f = make_fixture();
  PlanConfig cfg;
  cfg.threads = 1;
  auto plan = std::make_shared<const Nufft>(f.g, f.set, cfg);

  cvecf ref(static_cast<std::size_t>(f.set.count()));
  {
    Workspace ws = plan->make_workspace();
    ThreadPool pool(1);
    plan->forward(f.images[0].data(), ref.data(), ws, pool);
  }

  exec::EngineConfig ec;
  ec.workers = 1;  // one worker ⇒ the retry job reuses the returned lease
  NufftEngine engine(ec);
  cvecf got(static_cast<std::size_t>(f.set.count()));

  fault::arm("engine.apply", 1);
  auto doomed = engine.submit(exec::Op::kForward, plan, f.images[0].data(), got.data());
  try {
    doomed.get();
    FAIL() << "expected injected apply failure";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInternal);
  }

  // The lease returned on the failure path serves the next job unharmed.
  auto ok = engine.submit(exec::Op::kForward, plan, f.images[0].data(), got.data());
  ok.get();
  EXPECT_TRUE(bitwise_equal(got.data(), ref.data(), f.set.count()));
}

TEST_F(FaultTest, TransientFaultIsRetriedWithinBudget) {
  Fixture f = make_fixture();
  PlanConfig cfg;
  cfg.threads = 1;
  auto plan = std::make_shared<const Nufft>(f.g, f.set, cfg);
  cvecf ref(static_cast<std::size_t>(f.set.count()));
  {
    Workspace ws = plan->make_workspace();
    ThreadPool pool(1);
    plan->forward(f.images[0].data(), ref.data(), ws, pool);
  }

  NufftEngine engine;
  cvecf got(static_cast<std::size_t>(f.set.count()));
  exec::JobOptions opts;
  opts.max_retries = 3;
  opts.retry_backoff = std::chrono::milliseconds{1};

  fault::arm("engine.apply.transient", 2);  // fail twice, succeed third
  auto fut = engine.submit(exec::Op::kForward, plan, f.images[0].data(), got.data(), 1, opts);
  fut.get();
  EXPECT_EQ(fault::fired("engine.apply.transient"), 2u);
  EXPECT_TRUE(bitwise_equal(got.data(), ref.data(), f.set.count()));
}

TEST_F(FaultTest, RetryBudgetExhaustionSurfacesResourceExhausted) {
  Fixture f = make_fixture();
  PlanConfig cfg;
  cfg.threads = 1;
  auto plan = std::make_shared<const Nufft>(f.g, f.set, cfg);

  NufftEngine engine;
  cvecf got(static_cast<std::size_t>(f.set.count()));
  exec::JobOptions opts;
  opts.max_retries = 1;
  opts.retry_backoff = std::chrono::milliseconds{1};

  fault::arm("engine.apply.transient", 5);  // outlasts the retry budget
  auto fut = engine.submit(exec::Op::kForward, plan, f.images[0].data(), got.data(), 1, opts);
  try {
    fut.get();
    FAIL() << "expected retry budget exhaustion";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kResourceExhausted);
  }
  // First attempt + one retry.
  EXPECT_EQ(fault::fired("engine.apply.transient"), 2u);
}

// --- Engine watchdog --------------------------------------------------------

TEST_F(FaultTest, WatchdogResolvesHungJobAndQuarantinesThePlan) {
  Fixture f = make_fixture();
  PlanConfig cfg;
  cfg.threads = 1;
  PlanRegistry registry;
  const auto plan = registry.acquire(f.g, f.set, cfg);

  exec::EngineConfig ec;
  ec.workers = 1;
  ec.stall_threshold = std::chrono::milliseconds(50);
  ec.watchdog_poll = std::chrono::milliseconds(5);
  ec.watchdog_registry = &registry;
  NufftEngine engine(ec);

  cvecf got(static_cast<std::size_t>(f.set.count()));
  fault::arm("engine.apply.stall", 1, 0, /*stall ms=*/400);
  auto hung = engine.submit(exec::Op::kForward, plan, f.images[0].data(), got.data());
  try {
    hung.get();
    FAIL() << "expected watchdog timeout";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTimeout);
  }

  // The future resolves before the watchdog finishes its bookkeeping
  // (quarantine, replacement worker) — poll briefly instead of racing it.
  exec::WatchdogStats wd;
  for (int i = 0; i < 500; ++i) {
    wd = engine.watchdog_stats();
    if (wd.quarantines >= 1 && wd.replacements >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(wd.stalls, 1u);
  EXPECT_EQ(wd.quarantines, 1u);
  EXPECT_EQ(wd.replacements, 1u);

  // The stalled plan is quarantined: re-acquiring its key fails fast instead
  // of handing the next job the same hazard.
  try {
    registry.acquire(f.g, f.set, cfg);
    FAIL() << "expected quarantine rejection";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnavailable);
  }
  EXPECT_GE(registry.stats().watchdog_quarantines, 1u);

  // Capacity survived the wedged thread: the replacement worker serves the
  // next job while the expelled one is still asleep inside the stall.
  const auto set2 = testing::small_trajectory(TrajectoryType::kSpiral, 2, f.g.n[0], 400);
  auto plan2 = std::make_shared<const Nufft>(f.g, set2, cfg);
  cvecf out2(static_cast<std::size_t>(set2.count()));
  engine.submit(exec::Op::kForward, plan2, f.images[0].data(), out2.data()).get();
  EXPECT_EQ(engine.workers(), 2);  // original (wedged) + replacement

  // When the stall finally returns, the claimed job counts as a late
  // completion — the apply ran against keepalive-pinned buffers to the end.
  for (int i = 0; i < 500 && engine.watchdog_stats().late_completions == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(engine.watchdog_stats().late_completions, 1u);
}

// --- Runtime fault configuration --------------------------------------------

TEST_F(FaultTest, DeterministicSpecSkipsThenFires) {
  fault::arm("chaos.skip", 2, /*skip=*/3);
  int hits = 0;
  for (int i = 0; i < 10; ++i) {
    if (fault::should_fail("chaos.skip")) ++hits;
  }
  EXPECT_EQ(hits, 2);  // three clean passes, two injected failures, then done
  EXPECT_EQ(fault::fired("chaos.skip"), 2u);
}

TEST_F(FaultTest, ProbabilisticSpecHonoursBudget) {
  fault::arm_prob("chaos.always", 1.0, /*budget=*/3);
  int fired = 0;
  for (int i = 0; i < 16; ++i) {
    if (fault::should_fail("chaos.always")) ++fired;
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(fault::fired_total(), 3u);
}

TEST_F(FaultTest, EnvProbSpecArmsSites) {
  ::setenv("NUFFT_FAULT", "env.prob:p1.0:2", 1);
  ::setenv("NUFFT_FAULT_SEED", "123", 1);
  fault::reset();  // re-read the environment on the next hit
  int fired = 0;
  for (int i = 0; i < 8; ++i) {
    if (fault::should_fail("env.prob")) ++fired;
  }
  EXPECT_EQ(fired, 2);
  ::unsetenv("NUFFT_FAULT");
  ::unsetenv("NUFFT_FAULT_SEED");
  fault::reset();
}

// --- BatchNufft graceful degradation ---------------------------------------

TEST_F(FaultTest, PrivateBufferAllocFailureFallsBackToDirectScatter) {
  Fixture f = make_fixture();
  PlanConfig cfg;
  cfg.use_simd = false;
  cfg.threads = 2;
  Nufft plan(f.g, f.set, cfg);

  std::vector<cvecf> ref(kBatch, cvecf(static_cast<std::size_t>(f.g.image_elems())));
  for (index_t b = 0; b < kBatch; ++b) plan.adjoint(f.raws[b].data(), ref[b].data());

  fault::arm("batch.private_alloc", 1);
  BatchNufft batch(plan, kBatch);
  EXPECT_EQ(fault::fired("batch.private_alloc"), 1u);
  EXPECT_TRUE(batch.privatization_downgraded());

  std::vector<const cfloat*> in;
  std::vector<cfloat*> out;
  std::vector<cvecf> got(kBatch, cvecf(static_cast<std::size_t>(f.g.image_elems())));
  for (index_t b = 0; b < kBatch; ++b) {
    in.push_back(f.raws[b].data());
    out.push_back(got[b].data());
  }
  batch.adjoint(in.data(), out.data(), kBatch);
  EXPECT_TRUE(batch.last_adjoint_stats().privatization_downgraded);
  EXPECT_EQ(batch.last_adjoint_stats().privatized_tasks, 0);
  for (index_t b = 0; b < kBatch; ++b) {
    EXPECT_LT(testing::rel_err(got[b].data(), ref[b].data(), f.g.image_elems()), 1e-5)
        << "slice " << b;
  }
}


// --- trajectory updates -----------------------------------------------------

// Every field of two preprocessing results, the delta bookkeeping an update
// diffs against included.
void expect_same_plan(const Preprocessed& a, const Preprocessed& b) {
  ASSERT_EQ(a.layout.dim, b.layout.dim);
  for (int d = 0; d < a.layout.dim; ++d) {
    const auto sd = static_cast<std::size_t>(d);
    ASSERT_EQ(a.layout.bounds[sd], b.layout.bounds[sd]);
    ASSERT_EQ(a.coords[sd].size(), b.coords[sd].size());
    ASSERT_EQ(std::memcmp(a.coords[sd].data(), b.coords[sd].data(),
                          a.coords[sd].size() * sizeof(float)),
              0);
  }
  ASSERT_EQ(a.orig_index, b.orig_index);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t k = 0; k < a.tasks.size(); ++k) {
    EXPECT_EQ(a.tasks[k].begin, b.tasks[k].begin);
    EXPECT_EQ(a.tasks[k].end, b.tasks[k].end);
  }
  ASSERT_EQ(a.weights, b.weights);
  ASSERT_EQ(a.privatized, b.privatized);
  ASSERT_NE(a.delta, nullptr);
  ASSERT_NE(b.delta, nullptr);
  ASSERT_EQ(a.delta->task_of, b.delta->task_of);
  for (int d = 0; d < a.layout.dim; ++d) {
    const auto sd = static_cast<std::size_t>(d);
    ASSERT_EQ(a.delta->cell_counts[sd], b.delta->cell_counts[sd]);
    const auto& pa = a.delta->prev_coords[sd];
    const auto& pb = b.delta->prev_coords[sd];
    ASSERT_EQ(pa.size(), pb.size());
    ASSERT_EQ(std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(float)), 0);
  }
}

// An allocation failure inside a warm update must leave the plan and its
// delta state as they were: the next update diffs against that state, so a
// half-committed task_of or cell count table would mis-bin later frames.
TEST_F(FaultTest, UpdateAllocFailureLeavesPlanAndDeltaUntouched) {
  const GridDesc g = make_grid(2, 32, 2.0);
  const auto base = testing::small_trajectory(TrajectoryType::kRandom, 2, 32, 6000);
  // Every 40th sample moves one whole cell per dimension, so task_of,
  // prev_coords and (variable layouts) the cell counts all change.
  const auto next = testing::moved_samples(base, 40, 1.0f);
  for (const bool variable : {false, true}) {
    SCOPED_TRACE(variable ? "variable layout" : "fixed layout");
    PlanConfig cfg;
    cfg.threads = 8;
    cfg.kernel_radius = 2.0;
    cfg.variable_partitions = variable;
    ThreadPool pool(3);
    auto pp = preprocess(g, base, cfg, pool);
    const Preprocessed snapshot = clone_preprocessed(pp);

    fault::arm("prep.update.alloc", 1);
    EXPECT_THROW(update_preprocessed(pp, g, next, cfg, pool), std::bad_alloc);
    EXPECT_EQ(fault::fired("prep.update.alloc"), 1u);
    expect_same_plan(snapshot, pp);

    ASSERT_EQ(update_preprocessed(pp, g, next, cfg, pool), UpdatePath::kWarm);
    EXPECT_EQ(fault::fired("prep.update.alloc"), 1u);
    expect_same_plan(preprocess(g, next, cfg, pool), pp);
    fault::reset();
  }
}

}  // namespace
}  // namespace nufft
