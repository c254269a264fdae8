// Tests for plan serialization / restoration ("wisdom", paper §V-E).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/conv_dispatch.hpp"
#include "core/nufft.hpp"
#include "core/plan_cache.hpp"
#include "core/tolerance.hpp"
#include "test_util.hpp"

namespace nufft {
namespace {

using datasets::TrajectoryType;

struct Fixture {
  GridDesc g;
  datasets::SampleSet set;
  PlanConfig cfg;

  explicit Fixture(int dim = 2, index_t n = 32, index_t count = 3000)
      : g(make_grid(dim, n, 2.0)),
        set(testing::small_trajectory(TrajectoryType::kRadial, dim, n, count)) {
    cfg.threads = 4;
  }
};

TEST(PlanCache, RoundTripPreservesEveryField) {
  Fixture f;
  const auto pp = preprocess(f.g, f.set, f.cfg);
  const auto blob = serialize_plan(pp, f.g, f.cfg);
  const auto back = deserialize_plan(blob.data(), blob.size(), f.g, f.set, f.cfg);

  ASSERT_EQ(back.layout.dim, pp.layout.dim);
  for (int d = 0; d < f.g.dim; ++d) {
    EXPECT_EQ(back.layout.bounds[static_cast<std::size_t>(d)],
              pp.layout.bounds[static_cast<std::size_t>(d)]);
  }
  ASSERT_EQ(back.tasks.size(), pp.tasks.size());
  for (std::size_t k = 0; k < pp.tasks.size(); ++k) {
    EXPECT_EQ(back.tasks[k].begin, pp.tasks[k].begin);
    EXPECT_EQ(back.tasks[k].end, pp.tasks[k].end);
    EXPECT_EQ(back.tasks[k].box_lo, pp.tasks[k].box_lo);
    EXPECT_EQ(back.tasks[k].box_hi, pp.tasks[k].box_hi);
  }
  EXPECT_EQ(back.privatized, pp.privatized);
  EXPECT_EQ(back.privatization_threshold, pp.privatization_threshold);
  EXPECT_EQ(back.orig_index, pp.orig_index);
  EXPECT_EQ(back.weights, pp.weights);
  for (int d = 0; d < f.g.dim; ++d) {
    EXPECT_EQ(back.coords[static_cast<std::size_t>(d)], pp.coords[static_cast<std::size_t>(d)]);
  }
}

TEST(PlanCache, RestoredPlanProducesIdenticalTransforms) {
  Fixture f;
  auto pp = preprocess(f.g, f.set, f.cfg);
  const auto blob = serialize_plan(pp, f.g, f.cfg);

  Nufft fresh(f.g, f.set, f.cfg);
  Nufft restored(f.g, f.set, f.cfg,
                 deserialize_plan(blob.data(), blob.size(), f.g, f.set, f.cfg));

  const cvecf img = testing::random_image(f.g.image_elems(), 1);
  const cvecf raw = testing::random_raw(f.set.count(), 2);
  cvecf raw_a(raw.size()), raw_b(raw.size());
  fresh.forward(img.data(), raw_a.data());
  restored.forward(img.data(), raw_b.data());
  for (index_t i = 0; i < f.set.count(); ++i) {
    ASSERT_EQ(raw_a[static_cast<std::size_t>(i)], raw_b[static_cast<std::size_t>(i)]);
  }
  cvecf img_a(img.size()), img_b(img.size());
  fresh.adjoint(raw.data(), img_a.data());
  restored.adjoint(raw.data(), img_b.data());
  for (index_t i = 0; i < f.g.image_elems(); ++i) {
    ASSERT_EQ(img_a[static_cast<std::size_t>(i)], img_b[static_cast<std::size_t>(i)]);
  }
}

TEST(PlanCache, FileRoundTrip) {
  Fixture f(3, 12, 500);
  const auto pp = preprocess(f.g, f.set, f.cfg);
  const auto path = std::filesystem::temp_directory_path() / "nufft_plan_test.bin";
  save_plan(path.string(), pp, f.g, f.cfg);
  const auto back = load_plan(path.string(), f.g, f.set, f.cfg);
  EXPECT_EQ(back.orig_index, pp.orig_index);
  std::filesystem::remove(path);
}

TEST(PlanCache, RejectsWrongGrid) {
  Fixture f;
  const auto pp = preprocess(f.g, f.set, f.cfg);
  const auto blob = serialize_plan(pp, f.g, f.cfg);
  const GridDesc other = make_grid(2, 64, 2.0);
  EXPECT_THROW(deserialize_plan(blob.data(), blob.size(), other, f.set, f.cfg), Error);
}

TEST(PlanCache, RejectsWrongDimension) {
  Fixture f;
  const auto pp = preprocess(f.g, f.set, f.cfg);
  const auto blob = serialize_plan(pp, f.g, f.cfg);
  const GridDesc g3 = make_grid(3, 32, 2.0);
  const auto set3 = testing::small_trajectory(TrajectoryType::kRadial, 3, 32, 3000);
  EXPECT_THROW(deserialize_plan(blob.data(), blob.size(), g3, set3, f.cfg), Error);
}

TEST(PlanCache, RejectsDifferentKernelIdentity) {
  // A blob serialized under one kernel must not restore under another: the
  // v2 format carries the resolved kernel identity precisely so two plans
  // differing only in kernel never alias through the cache.
  Fixture f;
  const auto pp = preprocess(f.g, f.set, f.cfg);
  const auto blob = serialize_plan(pp, f.g, f.cfg);

  PlanConfig es = f.cfg;
  es.kernel = kernels::KernelType::kEs;
  es.eval = kernels::KernelEval::kHorner;
  EXPECT_THROW(deserialize_plan(blob.data(), blob.size(), f.g, f.set, es), Error);

  PlanConfig wider = f.cfg;
  wider.kernel_radius = f.cfg.kernel_radius + 0.5;
  EXPECT_THROW(deserialize_plan(blob.data(), blob.size(), f.g, f.set, wider), Error);

  PlanConfig denser = f.cfg;
  denser.lut_samples_per_unit = 2 * f.cfg.lut_samples_per_unit;
  EXPECT_THROW(deserialize_plan(blob.data(), blob.size(), f.g, f.set, denser), Error);
}

// Byte offset of the dispatch identity in a blob: magic, version, dim, the
// grid extents, then the kernel identity (family, radius, LUT density,
// evaluator).
std::size_t dispatch_id_offset(const GridDesc& g) {
  return 3 * sizeof(std::uint32_t) + static_cast<std::size_t>(g.dim) * sizeof(index_t) +
         sizeof(std::int32_t) + sizeof(double) + 2 * sizeof(std::int32_t);
}

TEST(PlanCache, DispatchIdentityMismatchRejected) {
  // The blob records the backend-agnostic convolution dispatch identity
  // (dim, registry width2, evaluator): a blob whose identity differs from
  // the restoring config's must not restore — that plan would silently run a
  // different convolution variant than the one it was validated with.
  Fixture f;
  const auto pp = preprocess(f.g, f.set, f.cfg);
  auto blob = serialize_plan(pp, f.g, f.cfg);

  std::uint32_t id = 0;
  std::memcpy(&id, blob.data() + dispatch_id_offset(f.g), sizeof(id));
  ASSERT_EQ(id, conv_dispatch_id(f.cfg, f.g.dim));
  id ^= 1u << 8;  // another registry width
  std::memcpy(blob.data() + dispatch_id_offset(f.g), &id, sizeof(id));
  EXPECT_THROW(deserialize_plan(blob.data(), blob.size(), f.g, f.set, f.cfg), Error);
}

TEST(PlanCache, StaleV3BlobRejected) {
  // v4 dropped the registry on/off flag from the dispatch identity; a v3
  // blob is stale and must be rejected as corrupt, never half-parsed.
  Fixture f;
  const auto pp = preprocess(f.g, f.set, f.cfg);
  auto blob = serialize_plan(pp, f.g, f.cfg);
  const std::uint32_t v3 = 3;
  std::memcpy(blob.data() + sizeof(std::uint32_t), &v3, sizeof(v3));
  try {
    deserialize_plan(blob.data(), blob.size(), f.g, f.set, f.cfg);
    FAIL() << "v3 blob restored";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIoCorruption);
  }
}

TEST(PlanCache, ToleranceConfigCanonicalizesToResolvedIdentity) {
  // Serializing under an explicit config and restoring under the
  // tolerance-driven config that resolves to the same parameters must work:
  // both name the same plan.
  Fixture f;
  f.cfg.kernel = kernels::KernelType::kEs;
  f.cfg.tolerance = 1e-3;
  PlanConfig resolved = f.cfg;
  apply_tolerance(resolved, f.g.alpha);
  const auto pp = preprocess(f.g, f.set, resolved);
  const auto blob = serialize_plan(pp, f.g, resolved);
  const auto back = deserialize_plan(blob.data(), blob.size(), f.g, f.set, f.cfg);
  EXPECT_EQ(back.orig_index, pp.orig_index);
}

TEST(PlanCache, RejectsWrongSampleCount) {
  Fixture f;
  const auto pp = preprocess(f.g, f.set, f.cfg);
  const auto blob = serialize_plan(pp, f.g, f.cfg);
  const auto other = testing::small_trajectory(TrajectoryType::kRadial, 2, 32, 500);
  EXPECT_THROW(deserialize_plan(blob.data(), blob.size(), f.g, other, f.cfg), Error);
}

TEST(PlanCache, RejectsTruncatedBlob) {
  Fixture f;
  const auto pp = preprocess(f.g, f.set, f.cfg);
  auto blob = serialize_plan(pp, f.g, f.cfg);
  blob.resize(blob.size() / 2);
  EXPECT_THROW(deserialize_plan(blob.data(), blob.size(), f.g, f.set, f.cfg), Error);
}

TEST(PlanCache, RejectsCorruptPermutation) {
  Fixture f;
  const auto pp = preprocess(f.g, f.set, f.cfg);
  auto blob = serialize_plan(pp, f.g, f.cfg);
  // The permutation occupies the blob tail; duplicate one entry.
  auto* tail = reinterpret_cast<index_t*>(blob.data() + blob.size() - 2 * sizeof(index_t));
  tail[0] = tail[1];
  EXPECT_THROW(deserialize_plan(blob.data(), blob.size(), f.g, f.set, f.cfg), Error);
}

TEST(PlanCache, RejectsGarbageMagic) {
  Fixture f;
  const auto pp = preprocess(f.g, f.set, f.cfg);
  auto blob = serialize_plan(pp, f.g, f.cfg);
  blob[0] ^= 0xFF;
  EXPECT_THROW(deserialize_plan(blob.data(), blob.size(), f.g, f.set, f.cfg), Error);
}

ErrorCode load_error_code(const std::string& path, const GridDesc& g,
                          const datasets::SampleSet& set, const PlanConfig& cfg) {
  try {
    load_plan(path, g, set, cfg);
  } catch (const Error& e) {
    return e.code();
  }
  ADD_FAILURE() << "load_plan unexpectedly succeeded";
  return ErrorCode::kInternal;
}

TEST(PlanCache, CorruptSpillFileIsDetectedByChecksum) {
  Fixture f;
  const auto pp = preprocess(f.g, f.set, f.cfg);
  const auto path = std::filesystem::temp_directory_path() / "nufft_plan_corrupt.bin";
  save_plan(path.string(), pp, f.g, f.cfg);

  // Flip one payload byte in the middle of the file: the structural checks
  // may or may not notice, but the file checksum always must.
  const auto size = std::filesystem::file_size(path);
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    file.seekp(static_cast<std::streamoff>(size / 2));
    file.write(&byte, 1);
  }
  EXPECT_EQ(load_error_code(path.string(), f.g, f.set, f.cfg), ErrorCode::kIoCorruption);
  std::filesystem::remove(path);
}

TEST(PlanCache, TruncatedSpillFileIsRejected) {
  Fixture f;
  const auto pp = preprocess(f.g, f.set, f.cfg);
  const auto path = std::filesystem::temp_directory_path() / "nufft_plan_trunc.bin";
  save_plan(path.string(), pp, f.g, f.cfg);
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_EQ(load_error_code(path.string(), f.g, f.set, f.cfg), ErrorCode::kIoCorruption);
  // Even a file shorter than the header must fail cleanly.
  std::filesystem::resize_file(path, 3);
  EXPECT_EQ(load_error_code(path.string(), f.g, f.set, f.cfg), ErrorCode::kIoCorruption);
  std::filesystem::remove(path);
}

TEST(PlanCache, ErrorCodesDistinguishCorruptionFromStaleGeometry) {
  Fixture f;
  const auto pp = preprocess(f.g, f.set, f.cfg);
  const auto blob = serialize_plan(pp, f.g, f.cfg);

  // Blob-integrity failures carry kIoCorruption...
  auto truncated = blob;
  truncated.resize(truncated.size() / 2);
  try {
    deserialize_plan(truncated.data(), truncated.size(), f.g, f.set, f.cfg);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIoCorruption);
  }

  // ...while a well-formed blob for different geometry is a caller error.
  const GridDesc other = make_grid(2, 64, 2.0);
  const auto other_set = testing::small_trajectory(datasets::TrajectoryType::kRadial, 2, 64, 3000);
  try {
    deserialize_plan(blob.data(), blob.size(), other, other_set, f.cfg);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
  }
}

TEST(PlanCache, RestorationIsFasterThanPreprocessing) {
  Fixture f(3, 24, 40000);
  Timer t;
  const auto pp = preprocess(f.g, f.set, f.cfg);
  const double fresh_s = t.seconds();
  const auto blob = serialize_plan(pp, f.g, f.cfg);
  t.reset();
  const auto back = deserialize_plan(blob.data(), blob.size(), f.g, f.set, f.cfg);
  const double restore_s = t.seconds();
  // Restoring skips histogramming, partitioning, binning, and sorting; it
  // should comfortably beat a fresh preprocess on a nontrivial set.
  EXPECT_LT(restore_s, fresh_s) << "fresh=" << fresh_s << " restore=" << restore_s;
  EXPECT_EQ(back.orig_index.size(), pp.orig_index.size());
}

}  // namespace
}  // namespace nufft
