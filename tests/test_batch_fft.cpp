// BatchFft, the plan's FFT, tested directly over its three stage paths
// (scalar per-row Fft1d, SSE and AVX2 column stages) × d = 1–3 × {pow2,
// Bluestein} grids × nb ∈ {1, 2, 5}:
//
//  * unpruned (all-index wrap lists), it computes the DFT: each slice
//    matches fft::FftNd<double> within float rounding, forward and inverse;
//  * the batch-width contract: slice b of an nb-slice call equals the
//    nb = 1 call on slice b bitwise, so zero-padded columns and adjacent-row
//    blocks never leak into a slice's arithmetic;
//  * both instantiations of the column-stage template, bitwise: the SSE
//    stages equal the per-row Fft1d path, the AVX2 stages a scalar model of
//    their lane arithmetic;
//  * pruned (the plan's corner wrap lists), on grids whose corner runs end
//    inside, at or one past a row block (runs of 3, 6, 7, 8, 9, 13 and 14
//    rows, and an anisotropic grid with an axis shorter than a block), the
//    forward of a corner-confined input equals the unpruned transform on
//    every cell and the inverse equals it on every corner cell, bitwise.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <initializer_list>
#include <numeric>
#include <string>
#include <vector>

#include "core/batch_fft.hpp"
#include "core/convolution_avx2.hpp"
#include "fft/fftnd.hpp"
#include "fft/twiddle.hpp"
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

std::array<std::vector<index_t>, 3> all_index_lists(const GridDesc& g) {
  std::array<std::vector<index_t>, 3> rows;
  for (int d = 0; d < g.dim; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    rows[ds].resize(static_cast<std::size_t>(g.m[ds]));
    std::iota(rows[ds].begin(), rows[ds].end(), index_t{0});
  }
  return rows;
}

// The plan's wrap lists: image index i of a dimension sits at grid index
// (i − ⌊n/2⌋) mod m, so the corner rows are [0, n − ⌊n/2⌋) ∪ [m − ⌊n/2⌋, m).
std::array<std::vector<index_t>, 3> wrap_lists(const GridDesc& g) {
  std::array<std::vector<index_t>, 3> wrap;
  for (int d = 0; d < g.dim; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    for (index_t i = 0; i < g.n[ds]; ++i) {
      const index_t c = i - g.n[ds] / 2;
      wrap[ds].push_back(c >= 0 ? c : c + g.m[ds]);
    }
  }
  return wrap;
}

// Whether every coordinate of each cell is a corner row.
std::vector<char> corner_cells(const GridDesc& g) {
  const auto wrap = wrap_lists(g);
  std::array<std::vector<char>, 3> corner;
  for (int d = 0; d < 3; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    corner[ds].assign(static_cast<std::size_t>(d < g.dim ? g.m[ds] : 1), d < g.dim ? 0 : 1);
    for (const index_t v : wrap[ds]) corner[ds][static_cast<std::size_t>(v)] = 1;
  }
  std::vector<char> cells;
  for (std::size_t i0 = 0; i0 < corner[0].size(); ++i0) {
    for (std::size_t i1 = 0; i1 < corner[1].size(); ++i1) {
      for (std::size_t i2 = 0; i2 < corner[2].size(); ++i2) {
        cells.push_back(static_cast<char>(corner[0][i0] && corner[1][i1] && corner[2][i2]));
      }
    }
  }
  return cells;
}

// The double-precision DFT of one slab.
std::vector<cdouble> reference_dft(const GridDesc& g, const cfloat* x, fft::Direction dir,
                                   ThreadPool& pool) {
  std::vector<std::size_t> dims;
  for (int d = 0; d < g.dim; ++d) dims.push_back(static_cast<std::size_t>(g.m[static_cast<std::size_t>(d)]));
  std::vector<cdouble> y(static_cast<std::size_t>(g.grid_elems()));
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = cdouble(x[i].real(), x[i].imag());
  fft::FftNd<double>(dims, dir).transform(y.data(), pool);
  return y;
}

// The batch-width contract: slice b of an nb-slice call on `in` equals the
// nb = 1 result `single[b]` bitwise.
void expect_slices_equal_single_calls(const BatchFft& fft, const cvecf& in,
                                      const std::vector<cvecf>& single,
                                      std::initializer_list<index_t> nbs, fft::Direction dir,
                                      ThreadPool& pool, bool stages, const std::string& what) {
  const std::size_t slab = single[0].size();
  for (const index_t nb : nbs) {
    cvecf batch(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(static_cast<std::size_t>(nb) * slab));
    fft.transform(batch.data(), nb, dir, pool, stages);
    for (index_t b = 0; b < nb; ++b) {
      const auto bs = static_cast<std::size_t>(b);
      EXPECT_EQ(std::memcmp(batch.data() + bs * slab, single[bs].data(), slab * sizeof(cfloat)), 0)
          << what << " nb=" << nb << " slice " << b << " differs from its nb=1 call";
    }
  }
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
        const BatchFft fft(g, all_index_lists(g), path.avx2);
        const auto slab = static_cast<std::size_t>(g.grid_elems());
        const cvecf input = testing::random_image(kSlices * g.grid_elems(), 17 + dim);
        ThreadPool pool(2);

        for (const fft::Direction dir : {fft::Direction::kForward, fft::Direction::kInverse}) {
          const std::string what = where + (dir == fft::Direction::kForward ? " fwd" : " inv");
          // Each slice alone, checked against the double-precision DFT.
          std::vector<cvecf> single(kSlices);
          for (index_t b = 0; b < kSlices; ++b) {
            const auto bs = static_cast<std::size_t>(b);
            single[bs].assign(input.begin() + bs * slab, input.begin() + (bs + 1) * slab);
            const std::vector<cdouble> want = reference_dft(g, single[bs].data(), dir, pool);
            fft.transform(single[bs].data(), 1, dir, pool, path.stages);
            EXPECT_LT(testing::rel_err(single[bs].data(), want.data(), g.grid_elems()), kDftTol)
                << what << " slice " << b;
            if (path.stages && !path.avx2 && pow2) {
              // The SSE column stages round as the per-row Fft1d path does.
              cvecf rows(input.begin() + bs * slab, input.begin() + (bs + 1) * slab);
              fft.transform(rows.data(), 1, dir, pool, /*batched_stages=*/false);
              EXPECT_EQ(std::memcmp(single[bs].data(), rows.data(), slab * sizeof(cfloat)), 0)
                  << what << " slice " << b << ": SSE stages differ from the Fft1d rows";
            }
          }
          expect_slices_equal_single_calls(fft, input, single, {1, 2, kSlices}, dir, pool,
                                           path.stages, what);
        }
      }
    }
  }
}

// A scalar model of one AVX2 column-stage lane: Fft1d's Stockham plan
// (radix-4 stages, one trailing radix-2) over fft::make_twiddles, with
// x·w = (fma(xr, wr, −xi·wi), fma(xi, wr, xr·wi)) and the twiddle powers
// w², w³ as plain complex products, rounded after each operation.
cfloat fused_twiddle(cfloat x, cfloat w) {
  return cfloat(std::fma(x.real(), w.real(), -(x.imag() * w.imag())),
                std::fma(x.imag(), w.real(), x.real() * w.imag()));
}

cfloat plain_product(cfloat a, cfloat b) {
  return cfloat(a.real() * b.real() - a.imag() * b.imag(),
                a.real() * b.imag() + a.imag() * b.real());
}

void stockham_lane_model(std::vector<cfloat>& x, int sign) {
  std::vector<cfloat> y(x.size());
  std::size_t s = 1;
  for (std::size_t nn = x.size(); nn > 1;) {
    const std::size_t radix = nn % 4 == 0 ? 4 : 2;
    const std::size_t m = nn / radix;
    const auto tw = fft::make_twiddles<float>(m, nn, sign);
    for (std::size_t p = 0; p < m; ++p) {
      const cfloat w1 = tw[p];
      const cfloat w2 = plain_product(w1, w1);
      const cfloat w3 = plain_product(w2, w1);
      for (std::size_t q = 0; q < s; ++q) {
        const auto in = [&](std::size_t k) { return x[q + s * (p + k * m)]; };
        const auto out = [&](std::size_t k) -> cfloat& { return y[q + s * (radix * p + k)]; };
        if (radix == 2) {
          out(0) = in(0) + in(1);
          out(1) = fused_twiddle(in(0) - in(1), w1);
          continue;
        }
        const cfloat apc = in(0) + in(2), amc = in(0) - in(2);
        const cfloat bpd = in(1) + in(3), bmd = in(1) - in(3);
        const cfloat jb = sign < 0 ? cfloat(bmd.imag(), -bmd.real())   // sign·i·(b−d)
                                   : cfloat(-bmd.imag(), bmd.real());
        out(0) = apc + bpd;
        out(1) = fused_twiddle(amc + jb, w1);
        out(2) = fused_twiddle(apc - bpd, w2);
        out(3) = fused_twiddle(amc - jb, w3);
      }
    }
    x.swap(y);
    nn /= radix;
    s *= radix;
  }
}

// The lane model on every row of every axis, in BatchFft's axis order.
void stage_lane_model(const GridDesc& g, cfloat* x, fft::Direction dir) {
  const auto st = g.grid_strides();
  const int sign = dir == fft::Direction::kForward ? -1 : 1;
  for (int i = 0; i < g.dim; ++i) {
    const auto a = static_cast<std::size_t>(dir == fft::Direction::kForward ? i : g.dim - 1 - i);
    std::vector<cfloat> row(static_cast<std::size_t>(g.m[a]));
    for (index_t base = 0; base < g.grid_elems(); ++base) {
      if ((base / st[a]) % g.m[a] != 0) continue;  // not the first cell of a row
      for (std::size_t k = 0; k < row.size(); ++k) row[k] = x[base + static_cast<index_t>(k) * st[a]];
      stockham_lane_model(row, sign);
      for (std::size_t k = 0; k < row.size(); ++k) x[base + static_cast<index_t>(k) * st[a]] = row[k];
    }
  }
}

// The AVX2 stages compute the lane model bitwise: their only fused
// operations are the vector FMAs of x·w, so w² and w³ round as in the SSE
// stages and Fft1d.
TEST(BatchFft, Avx2StagesMatchLaneModelBitwise) {
  if (!avx2_available()) GTEST_SKIP() << "CPU does not support AVX2 + FMA";
  // m = 8 and 32 end in a radix-2 stage.
  const std::pair<int, index_t> shapes[] = {{1, 4}, {1, 16}, {1, 512}, {2, 16},
                                            {2, 32}, {3, 8},  {3, 16}};
  ThreadPool pool(2);
  for (const auto& [dim, n] : shapes) {
    const GridDesc g = make_grid(dim, n, 2.0);
    const BatchFft fft(g, all_index_lists(g), /*avx2=*/true);
    const cvecf input = testing::random_image(g.grid_elems(), 29 + n);
    for (const fft::Direction dir : {fft::Direction::kForward, fft::Direction::kInverse}) {
      cvecf got = input;
      fft.transform(got.data(), 1, dir, pool, /*batched_stages=*/true);
      cvecf want = input;
      stage_lane_model(g, want.data(), dir);
      EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(cfloat)), 0)
          << "d" << dim << " m " << g.m[0] << (dir == fft::Direction::kForward ? " fwd" : " inv");
    }
  }
}

bool cells_equal(const cfloat* a, const cfloat* b, const std::vector<char>* only, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if ((only == nullptr || (*only)[i]) && std::memcmp(a + i, b + i, sizeof(cfloat)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(BatchFft, PrunedBlocksAtCornerRunEdgesMatchUnprunedBitwise) {
  std::vector<GridDesc> grids;
  for (const int dim : {2, 3}) {
    // m = 32 with runs of 7 and 6 (odd n), 8 and 8, 9 and 8; m = 16 with runs
    // of 3 and 3, shorter than a block.
    for (const index_t n : {13, 16, 17}) grids.push_back(make_grid(dim, n, 32.0 / static_cast<double>(n)));
    grids.push_back(make_grid(dim, 6, 16.0 / 6.0));
  }
  // Anisotropic: the contiguous axis is the longest (runs of 14 and 13), the
  // middle one shorter than a block (runs of 2 and 1).
  GridDesc aniso;
  aniso.dim = 3;
  aniso.n = {16, 3, 27};
  aniso.m = {32, 8, 64};
  grids.push_back(aniso);

  const auto sizes = [](const GridDesc& g, const std::array<index_t, 3>& v) {
    std::string s;
    for (int d = 0; d < g.dim; ++d) s.append(" ").append(std::to_string(v[static_cast<std::size_t>(d)]));
    return s;
  };
  for (const StagePath& path : stage_paths()) {
    for (const GridDesc& g : grids) {
      const std::string where = std::string(path.name) + " m" + sizes(g, g.m) + " n" + sizes(g, g.n);
      const BatchFft pruned(g, wrap_lists(g), path.avx2);
      const BatchFft full(g, all_index_lists(g), path.avx2);
      const auto slab = static_cast<std::size_t>(g.grid_elems());
      const std::vector<char> corner = corner_cells(g);
      ThreadPool pool(2);
      constexpr index_t kMaxSlices = 16;
      const cvecf input = testing::random_image(kMaxSlices * g.grid_elems(), 23);

      for (const fft::Direction dir : {fft::Direction::kForward, fft::Direction::kInverse}) {
        const bool fwd = dir == fft::Direction::kForward;
        const std::string what = where + (fwd ? " fwd" : " inv");
        // The forward reads corner-confined slabs (the rows it skips are
        // zero); the inverse reads full ones and is read back on corners.
        cvecf in = input;
        if (fwd) {
          for (std::size_t i = 0; i < in.size(); ++i) {
            if (!corner[i % slab]) in[i] = cfloat(0.0f, 0.0f);
          }
        }
        std::vector<cvecf> single(kMaxSlices);
        for (index_t b = 0; b < kMaxSlices; ++b) {
          const auto bs = static_cast<std::size_t>(b);
          single[bs].assign(in.begin() + static_cast<std::ptrdiff_t>(bs * slab),
                            in.begin() + static_cast<std::ptrdiff_t>((bs + 1) * slab));
          cvecf want = single[bs];
          pruned.transform(single[bs].data(), 1, dir, pool, path.stages);
          full.transform(want.data(), 1, dir, pool, path.stages);
          EXPECT_TRUE(cells_equal(single[bs].data(), want.data(), fwd ? nullptr : &corner, slab))
              << what << " slice " << b << ": pruned differs from unpruned";
        }
        if (fwd) {
          // And the transform itself is the DFT of the slice.
          const std::vector<cdouble> ref = reference_dft(g, in.data(), dir, pool);
          EXPECT_LT(testing::rel_err(single[0].data(), ref.data(), g.grid_elems()), kDftTol) << what;
        }
        expect_slices_equal_single_calls(pruned, in, single, {1, 2, 3, 5, 8, 16}, dir, pool,
                                         path.stages, what);
      }
    }
  }
}

}  // namespace
}  // namespace nufft
