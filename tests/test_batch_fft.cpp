// BatchFft, the plan's FFT, tested directly over its three stage paths
// (scalar per-row Fft1d, SSE and AVX2 column stages) × d = 1–3 × {pow2,
// Bluestein} grids × nb ∈ {1, 2, 5}:
//
//  * unpruned (all-index wrap lists), it computes the DFT: each slice
//    matches fft::FftNd<double> within float rounding, forward and inverse;
//  * the batch-width contract: slice b of an nb-slice call equals the
//    nb = 1 call on slice b bitwise, so zero-padded columns and adjacent-row
//    blocks never leak into a slice's arithmetic.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "core/batch_fft.hpp"
#include "core/convolution_avx2.hpp"
#include "fft/fftnd.hpp"
#include "test_util.hpp"

namespace nufft {
namespace {

// Float stages against a double reference on grids of at most 4096 cells.
constexpr double kDftTol = 2e-6;

struct StagePath {
  const char* name;
  bool stages;  // column stages on pow2 axes (a SIMD plan)
  bool avx2;
};

std::vector<StagePath> stage_paths() {
  std::vector<StagePath> paths{{"scalar", false, false}, {"sse", true, false}};
  if (avx2_available()) paths.push_back({"avx2", true, true});
  return paths;
}

TEST(BatchFft, UnprunedMatchesFftNdAndSlicesEqualSingleCalls) {
  constexpr index_t kSlices = 5;
  for (const StagePath& path : stage_paths()) {
    for (int dim = 1; dim <= 3; ++dim) {
      for (const bool pow2 : {true, false}) {
        // m = 64/32/16 per dim on pow2 grids, 40/24/12 (Bluestein) otherwise.
        const index_t n = pow2 ? 64 >> dim : (dim == 1 ? 20 : (dim == 2 ? 12 : 6));
        const GridDesc g = make_grid(dim, n, 2.0);
        const std::string where = std::string(path.name) + " d" + std::to_string(dim) + " m " +
                                  std::to_string(g.m[0]);
        std::array<std::vector<index_t>, 3> all_rows;
        std::vector<std::size_t> dims;
        for (int d = 0; d < dim; ++d) {
          const auto m = static_cast<std::size_t>(g.m[static_cast<std::size_t>(d)]);
          all_rows[static_cast<std::size_t>(d)].resize(m);
          std::iota(all_rows[static_cast<std::size_t>(d)].begin(),
                    all_rows[static_cast<std::size_t>(d)].end(), index_t{0});
          dims.push_back(m);
        }
        const BatchFft fft(g, all_rows, path.avx2);
        const auto slab = static_cast<std::size_t>(g.grid_elems());
        const cvecf input = testing::random_image(kSlices * g.grid_elems(), 17 + dim);
        ThreadPool pool(2);

        for (const fft::Direction dir : {fft::Direction::kForward, fft::Direction::kInverse}) {
          const std::string what = where + (dir == fft::Direction::kForward ? " fwd" : " inv");
          // Each slice alone, checked against the double-precision DFT.
          std::vector<cvecf> single(kSlices);
          const fft::FftNd<double> ref(dims, dir);
          for (index_t b = 0; b < kSlices; ++b) {
            const auto bs = static_cast<std::size_t>(b);
            single[bs].assign(input.begin() + bs * slab, input.begin() + (bs + 1) * slab);
            std::vector<cdouble> want(slab);
            for (std::size_t i = 0; i < slab; ++i) {
              want[i] = cdouble(single[bs][i].real(), single[bs][i].imag());
            }
            ref.transform(want.data(), pool);
            fft.transform(single[bs].data(), 1, dir, pool, path.stages);
            EXPECT_LT(testing::rel_err(single[bs].data(), want.data(), g.grid_elems()), kDftTol)
                << what << " slice " << b;
          }
          for (const index_t nb : {index_t{1}, index_t{2}, kSlices}) {
            cvecf batch(input.begin(), input.begin() + static_cast<std::ptrdiff_t>(nb) *
                                                           static_cast<std::ptrdiff_t>(slab));
            fft.transform(batch.data(), nb, dir, pool, path.stages);
            for (index_t b = 0; b < nb; ++b) {
              const auto bs = static_cast<std::size_t>(b);
              EXPECT_EQ(std::memcmp(batch.data() + bs * slab, single[bs].data(),
                                    slab * sizeof(cfloat)),
                        0)
                  << what << " nb=" << nb << " slice " << b << " differs from its nb=1 call";
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace nufft
