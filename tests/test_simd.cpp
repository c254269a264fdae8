// Unit tests: the SSE Vec4f wrapper against scalar arithmetic. The AVX2
// Vec8f is checked through its kernels' lane models (test_avx2.cpp,
// test_batch_fft.cpp), since only -mavx2 TUs may include it.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "simd/vec4f.hpp"

namespace nufft::simd {
namespace {

TEST(Vec4f, SplatBroadcastsValue) {
  const Vec4f v(3.5f);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(v[i], 3.5f);
}

TEST(Vec4f, ZeroIsZero) {
  const Vec4f v = Vec4f::zero();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(v[i], 0.0f);
}

TEST(Vec4f, LaneConstructorOrdersLanes) {
  const Vec4f v(1.0f, 2.0f, 3.0f, 4.0f);
  EXPECT_EQ(v[0], 1.0f);
  EXPECT_EQ(v[1], 2.0f);
  EXPECT_EQ(v[2], 3.0f);
  EXPECT_EQ(v[3], 4.0f);
}

TEST(Vec4f, LoadStoreRoundtripUnaligned) {
  float in[7] = {0, 1, 2, 3, 4, 5, 6};
  float out[7] = {};
  const Vec4f v = Vec4f::loadu(in + 1);
  v.storeu(out + 1);
  for (int i = 1; i <= 4; ++i) EXPECT_EQ(out[i], in[i]);
}

TEST(Vec4f, ArithmeticMatchesScalar) {
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    float a[4], b[4];
    for (int i = 0; i < 4; ++i) {
      a[i] = static_cast<float>(rng.uniform(-10, 10));
      b[i] = static_cast<float>(rng.uniform(-10, 10));
    }
    const Vec4f va = Vec4f::loadu(a);
    const Vec4f vb = Vec4f::loadu(b);
    const Vec4f sum = va + vb;
    const Vec4f dif = va - vb;
    const Vec4f prd = va * vb;
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(sum[i], a[i] + b[i]);
      ASSERT_EQ(dif[i], a[i] - b[i]);
      ASSERT_EQ(prd[i], a[i] * b[i]);
    }
  }
}

TEST(Vec4f, MaddIsMulThenAdd) {
  Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    float a[4], b[4], c[4];
    for (int i = 0; i < 4; ++i) {
      a[i] = static_cast<float>(rng.uniform(-2, 2));
      b[i] = static_cast<float>(rng.uniform(-2, 2));
      c[i] = static_cast<float>(rng.uniform(-2, 2));
    }
    const Vec4f r = madd(Vec4f::loadu(a), Vec4f::loadu(b), Vec4f::loadu(c));
    for (int i = 0; i < 4; ++i) {
      // Separate mul and add — never fused; equality must be exact.
      ASSERT_EQ(r[i], a[i] * b[i] + c[i]);
    }
  }
}

TEST(Vec4f, HsumComplexPairsFoldsTwoComplexValues) {
  // Register holds (re0, im0, re1, im1); the fold gives (re0+re1, im0+im1).
  const Vec4f v(1.0f, 2.0f, 10.0f, 20.0f);
  float re = 0.0f, im = 0.0f;
  v.hsum_complex(re, im);
  EXPECT_EQ(re, 11.0f);
  EXPECT_EQ(im, 22.0f);
}

TEST(Vec4f, PairsRepeatsOneComplexValue) {
  const Vec4f v = Vec4f::pairs(3.0f, -4.0f);
  EXPECT_EQ(v[0], 3.0f);
  EXPECT_EQ(v[1], -4.0f);
  EXPECT_EQ(v[2], 3.0f);
  EXPECT_EQ(v[3], -4.0f);
}

TEST(Vec4f, SwapPairsSwapsWithinEachComplexValue) {
  const Vec4f v = Vec4f(1.0f, 2.0f, 3.0f, 4.0f).swap_pairs();
  EXPECT_EQ(v[0], 2.0f);
  EXPECT_EQ(v[1], 1.0f);
  EXPECT_EQ(v[2], 4.0f);
  EXPECT_EQ(v[3], 3.0f);
}

TEST(Vec4f, AlignedLoadFromAlignedStorage) {
  alignas(16) float buf[4] = {9, 8, 7, 6};
  const Vec4f v = Vec4f::load(buf);
  EXPECT_EQ(v[0], 9.0f);
  EXPECT_EQ(v[3], 6.0f);
}

}  // namespace
}  // namespace nufft::simd
