// Differential property-testing sweep (`ctest -L fuzz`).
//
// Every configuration is derived deterministically from a seed
// (fuzz_config.hpp), run through every execution path against the exact
// NUDFT and against the other paths (fuzz_runner.hpp), and any violated
// property is reported with a one-line reproduction command:
//
//   NUFFT_FUZZ_SEED=<seed> NUFFT_FUZZ_CONFIGS=1 ./nufft_fuzz_tests
//
// Environment knobs:
//   NUFFT_FUZZ_SEED=s     base seed of the sweep (default kBaseSeed)
//   NUFFT_FUZZ_CONFIGS=n  number of configurations (default 224)
//
// Bugs the harness has flushed out stay pinned here as regressions
// (FuzzRegression.*) so they re-run even if the sweep parameters change.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/env.hpp"
#include "fuzz/fuzz_config.hpp"
#include "fuzz/fuzz_runner.hpp"

namespace nufft::fuzz {
namespace {

// Fixed default so CI runs are reproducible; override via NUFFT_FUZZ_SEED.
constexpr std::uint64_t kBaseSeed = 20120521;  // the paper's conference date

// Pinned seeds for the regression tests below, chosen by scanning the
// generator for the property each test needs (asserted before running).
// The m = 3, W = 4 trio puts the kernel window wider than TWO grid periods
// (2W+1 = 9 > 2m = 6), where a single conditional ±m wrap still indexes out
// of range — only the full modular wrap is correct.
constexpr std::uint64_t kTinyGridSeed1 = 426;   // dim 1, m = 3, W = 4, 121 samples
constexpr std::uint64_t kTinyGridSeed2 = 4933;  // dim 2, m = 3, W = 4, ES Horner
constexpr std::uint64_t kTinyGridSeed3 = 2596;  // dim 3, m = 3, W = 4, clustered
constexpr std::uint64_t kBoundarySeed1 = 4;     // dim 1, m = 128, half-integer
constexpr std::uint64_t kBoundarySeed2 = 72;    // dim 2, m = 32, half-integer
constexpr std::uint64_t kZeroSampleSeed = 16;   // dim 1, prime m = 13, count 0
constexpr std::uint64_t kSingleSampleSeed = 56; // dim 2, count 1, ES Horner
constexpr std::uint64_t kPrimeGridSeed = 7422;  // dim 2, m = 13 (Bluestein), batch 8

void expect_clean(std::uint64_t seed) {
  const FuzzConfig c = make_fuzz_config(seed);
  const auto failures = run_differential(c);
  for (const auto& f : failures) ADD_FAILURE() << f;
}

TEST(Fuzz, DifferentialSweep) {
  const auto base = static_cast<std::uint64_t>(env_int("NUFFT_FUZZ_SEED",
                                                       static_cast<std::int64_t>(kBaseSeed)));
  const auto n = env_int("NUFFT_FUZZ_CONFIGS", 224);
  int rejected = 0;
  int streamed = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const FuzzConfig c = make_fuzz_config(base + static_cast<std::uint64_t>(i));
    if (c.footprint_exceeds_grid()) ++rejected;
    if (c.update_frames > 0 && c.count > 0 && !c.footprint_exceeds_grid()) ++streamed;
    const auto failures = run_differential(c);
    for (const auto& f : failures) ADD_FAILURE() << f;
  }
  // The generator must keep exercising the rejection path and the streaming
  // trajectory-delta battery; if the tables change and no config lands
  // there, this sweep silently loses coverage — fail loudly instead.
  if (n >= 100) {
    EXPECT_GT(rejected, 0) << "no config exercised the tiny-grid rejection path";
    EXPECT_GT(streamed, 0) << "no config exercised the trajectory-delta battery";
  }
}

// --- pinned regressions -----------------------------------------------------
//
// Seeds chosen (by scanning the generator) to land on the exact shapes that
// exposed real bugs; each stays green only with its fix in place.

TEST(FuzzRegression, TinyGridFootprintRejectionAndFullWrap) {
  // Grids narrower than the kernel footprint: plan construction must throw
  // kInvalidInput and the raw baselines must match the fully-wrapped
  // brute-force spread. Before the compute_window single-pass-wrap fix,
  // these configs produced out-of-range grid indices (silent corruption,
  // ASan-visible). Seeds below generate m < 2⌈W⌉+1 in each dimension.
  for (const std::uint64_t seed : {kTinyGridSeed1, kTinyGridSeed2, kTinyGridSeed3}) {
    const FuzzConfig c = make_fuzz_config(seed);
    ASSERT_TRUE(c.footprint_exceeds_grid()) << c.describe();
    expect_clean(seed);
  }
}

TEST(FuzzRegression, BoundaryAndHalfIntegerCoordinates) {
  // Half-integer and domain-boundary coordinates drive the float-rounding
  // window-trim fix (ceil(k−W)/floor(k+W) admitting |nx−k| > W).
  for (const std::uint64_t seed : {kBoundarySeed1, kBoundarySeed2}) {
    const FuzzConfig c = make_fuzz_config(seed);
    ASSERT_TRUE(c.style == CoordStyle::kBoundary || c.style == CoordStyle::kHalfInteger)
        << c.describe();
    ASSERT_FALSE(c.footprint_exceeds_grid()) << c.describe();
    expect_clean(seed);
  }
}

TEST(FuzzRegression, ZeroAndSingleSamplePlans) {
  // Empty and single-sample plans through the full TDG scheduler on every
  // operator (empty partitions, load_imbalance sentinels, exact-zero
  // adjoint).
  const FuzzConfig zero = make_fuzz_config(kZeroSampleSeed);
  ASSERT_EQ(zero.count, 0) << zero.describe();
  expect_clean(kZeroSampleSeed);
  const FuzzConfig one = make_fuzz_config(kSingleSampleSeed);
  ASSERT_EQ(one.count, 1) << one.describe();
  expect_clean(kSingleSampleSeed);
}

TEST(FuzzRegression, PrimeGridBluestein) {
  // Prime oversampled sizes route the FFT through Bluestein; batched
  // applies fall back to per-row transforms. Both must agree with NUDFT.
  const FuzzConfig c = make_fuzz_config(kPrimeGridSeed);
  ASSERT_EQ(c.m % 2, 1) << c.describe();
  expect_clean(kPrimeGridSeed);
}

}  // namespace
}  // namespace nufft::fuzz
