#include "core/batch_fft.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/batch_fft_stages.hpp"
#include "fft/fft1d.hpp"
#include "fft/twiddle.hpp"
#include "obs/trace.hpp"
#include "simd/vec4f.hpp"

namespace nufft {

namespace {

using fft::Direction;
using simd::Vec4f;

// Rows per block of a column-stage pass: 8 complex values are one 64-byte
// cache line.
constexpr index_t kRowBlock = 8;

// Copy loops between the slabs and the column-interleaved buffer. One value,
// two adjacent values, or a 2×2 tile: from a = (a0, a1), b = (b0, b1) to
// lo = (a0, b0), hi = (a1, b1). The tile is its own inverse, so a scatter
// swaps the roles of the two pairs.
inline void copy1(const cfloat* s, cfloat* d) {
  _mm_storel_epi64(reinterpret_cast<__m128i*>(d),
                   _mm_loadl_epi64(reinterpret_cast<const __m128i*>(s)));
}

inline void copy2(const cfloat* s, cfloat* d) {
  _mm_storeu_ps(reinterpret_cast<float*>(d), _mm_loadu_ps(reinterpret_cast<const float*>(s)));
}

inline void transpose2(const cfloat* a, const cfloat* b, cfloat* lo, cfloat* hi) {
  const __m128 x = _mm_loadu_ps(reinterpret_cast<const float*>(a));
  const __m128 y = _mm_loadu_ps(reinterpret_cast<const float*>(b));
  _mm_storeu_ps(reinterpret_cast<float*>(lo), _mm_movelh_ps(x, y));
  _mm_storeu_ps(reinterpret_cast<float*>(hi), _mm_movehl_ps(y, x));
}

// kGather moves slab → buffer, otherwise buffer → slab.
template <bool kGather>
struct Mover {
  static void one(cfloat* slab, cfloat* buf) { kGather ? copy1(slab, buf) : copy1(buf, slab); }
  static void two(cfloat* slab, cfloat* buf) { kGather ? copy2(slab, buf) : copy2(buf, slab); }
  static void tile(cfloat* a, cfloat* b, cfloat* lo, cfloat* hi) {
    kGather ? transpose2(a, b, lo, hi) : transpose2(lo, hi, a, b);
  }
};

// Where a block's rows sit in the slabs.
struct BlockGeom {
  std::size_t len;      // transform length
  std::size_t ax_st;    // stride between elements of a row
  std::size_t bstride;  // stride between adjacent rows of a block
  std::size_t slab;     // cells per slab
  std::size_t nb;
};

// Moves the `blk` rows of one block (row 0 of slice b at p0 + b·slab) to or
// from the buffer, element k of (row j, slice b) ↔ buf[k·cols + j·nb + b],
// walking the slabs at unit stride:
//  * contiguous axis (ax_st = 1): buffer column j·nb + b is a grid line; a
//    tile is elements k, k+1 of two adjacent columns (len is a power of two);
//  * strided axis (bstride = 1): the block's piece of line k is contiguous,
//    a straight copy. Only a 1-D batch has nb > 1 (BatchFft::transform), and
//    its one axis is contiguous, so a strided axis moves one slice.
template <bool kGather>
void move_block(const BlockGeom& g, cfloat* p0, std::size_t blk, cfloat* buf, std::size_t cols) {
  using M = Mover<kGather>;
  if (g.ax_st == 1) {
    const std::size_t ncols = blk * g.nb;
    auto line = [&](std::size_t c) { return p0 + (c % g.nb) * g.slab + (c / g.nb) * g.bstride; };
    std::size_t c = 0;
    for (; c + 1 < ncols; c += 2) {
      cfloat* a = line(c);
      cfloat* b = line(c + 1);
      for (std::size_t k = 0; k < g.len; k += 2) {
        M::tile(a + k, b + k, buf + k * cols + c, buf + (k + 1) * cols + c);
      }
    }
    if (c < ncols) {
      cfloat* a = line(c);
      for (std::size_t k = 0; k < g.len; ++k) M::one(a + k, buf + k * cols + c);
    }
    return;
  }
  for (std::size_t k = 0; k < g.len; ++k) {
    cfloat* l = p0 + k * g.ax_st;
    cfloat* d = buf + k * cols;
    std::size_t j = 0;
    for (; j + 1 < blk; j += 2) M::two(l + j, d + j);
    if (j < blk) M::one(l + j, d + j);
  }
}

}  // namespace

BatchFft::BatchFft(const GridDesc& g, const std::array<std::vector<index_t>, 3>& wrap,
                   bool avx2)
    : g_(g), avx2_(avx2) {
  st_ = g_.grid_strides();
  slab_elems_ = g_.grid_elems();
  for (int d = 0; d < g_.dim; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    const auto m = static_cast<std::size_t>(g_.m[ds]);
    plans_fwd_.emplace_back(m, Direction::kForward);
    plans_inv_.emplace_back(m, Direction::kInverse);
    full_[ds].resize(m);
    for (std::size_t i = 0; i < m; ++i) full_[ds][i] = static_cast<index_t>(i);
    // Corner rows: the sorted set of wrapped image indices.
    std::vector<char> mark(m, 0);
    for (const index_t v : wrap[ds]) mark[static_cast<std::size_t>(v)] = 1;
    for (std::size_t i = 0; i < m; ++i) {
      if (mark[i]) corner_[ds].push_back(static_cast<index_t>(i));
    }
    pow2_[ds] = fft::is_pow2(m);
    if (!pow2_[ds]) continue;
    // Rebuild Fft1d's stage plan (radix-4 stages, one trailing radix-2) so
    // the batched stages consume the same per-stage twiddle values.
    for (auto [stages, sign] : {std::pair{&stages_fwd_[ds], -1}, std::pair{&stages_inv_[ds], +1}}) {
      for (std::size_t nn = m; nn > 1;) {
        if (nn % 4 == 0) {
          stages->tw.push_back(fft::make_twiddles<float>(nn / 4, nn, sign));
          stages->radix.push_back(4);
          nn /= 4;
        } else {
          stages->tw.push_back(fft::make_twiddles<float>(nn / 2, nn, sign));
          stages->radix.push_back(2);
          nn /= 2;
        }
      }
    }
  }
}

void BatchFft::transform(cfloat* slabs, index_t nb, Direction dir, ThreadPool& pool,
                         bool batched_stages) const {
  NUFFT_CHECK(nb >= 1);
  // The prunable rows are always the ones whose *untransformed* (forward)
  // or *already-transformed* (adjoint) coordinates are corner-confined, so
  // the traversal order decides which axes get the pruning. The adjoint
  // runs the contiguous axis first: its full pass lands on the cheap
  // in-place axis and the ¼ pass on the expensive strided axis 0. The
  // forward runs the mirror image (axis 0 first), so its strided axis is the
  // one restricted to the corner rows. Either way the axes a pass has not
  // reached (forward) or has finished (adjoint) are the ones above it. The
  // order depends on the direction only, never on nb or the backend.
  //
  // A 1-D slice is one row, so a 1-D batch runs as nb stage columns of one
  // pass. Any other grid runs its slices through the per-slice schedule
  // (ThreadPool::for_each_slice): all of a slice's passes back to back at
  // nb = 1, whole on one context, or row-split across the pool for the
  // leftover slices.
  const auto dim = static_cast<std::size_t>(g_.dim);
  const index_t pass_nb = dim == 1 ? nb : 1;
  PassBuffers bufs{std::vector<aligned_vector<cfloat>>(static_cast<std::size_t>(pool.size())),
                   pass_buffer_elems(pass_nb, dir, batched_stages)};
  auto passes = [&](cfloat* s, int ctx, ThreadPool& p) {
    for (std::size_t i = 0; i < dim; ++i) {
      const std::size_t a = dir == Direction::kForward ? i : dim - 1 - i;
      obs::Span span("nufft.fft.axis", "core", static_cast<std::int64_t>(a));
      axis_pass(s, pass_nb, a, dir, p, batched_stages, bufs, ctx);
    }
  };
  if (dim == 1) {
    passes(slabs, 0, pool);
    return;
  }
  const auto slab = static_cast<std::size_t>(slab_elems_);
  pool.for_each_slice(nb, [&](int ctx, index_t b, ThreadPool& p) {
    passes(slabs + static_cast<std::size_t>(b) * slab, ctx, p);
  });
}

std::size_t BatchFft::pad_cols(std::size_t c) const {
  // AVX2 stages consume 4 complex columns per 256-bit op, SSE stages 2; the
  // pad columns are zeroed.
  const std::size_t colpad = avx2_ ? 3 : 1;
  return (c + colpad) & ~colpad;
}

std::size_t BatchFft::pass_buffer_elems(index_t nb, Direction dir, bool batched_stages) const {
  std::size_t elems = 0;
  for (std::size_t a = 0; a < static_cast<std::size_t>(g_.dim); ++a) {
    const auto len = static_cast<std::size_t>(g_.m[a]);
    const std::size_t need =
        batched_stages && pow2_[a]
            ? 2 * len * pad_cols(static_cast<std::size_t>(kRowBlock * nb))
            : len + (dir == Direction::kForward ? plans_fwd_ : plans_inv_)[a].scratch_size();
    elems = std::max(elems, need);
  }
  return elems;
}

void BatchFft::axis_pass(cfloat* slabs, index_t nb, std::size_t axis, Direction dir,
                         ThreadPool& pool, bool batched_stages, PassBuffers& bufs, int ctx) const {
  const std::size_t len = static_cast<std::size_t>(g_.m[axis]);
  if (len == 1) return;
  const int dim = g_.dim;

  // Row coordinate lists for the non-transform dims. The dims above the
  // axis are corner-confined: the forward has not reached them yet (still
  // zero outside the corners), the adjoint has finished them (non-corner
  // outputs are never read).
  const std::vector<index_t>* lists[2] = {nullptr, nullptr};
  index_t lstrides[2] = {0, 0};
  int nlists = 0;
  for (int d = 0; d < dim; ++d) {
    if (d == static_cast<int>(axis)) continue;
    const auto ds = static_cast<std::size_t>(d);
    lists[nlists] = d > static_cast<int>(axis) ? &corner_[ds] : &full_[ds];
    lstrides[nlists] = st_[ds];
    ++nlists;
  }
  index_t nrows = 1;
  for (int i = 0; i < nlists; ++i) nrows *= static_cast<index_t>(lists[i]->size());
  const index_t inner2 = nlists == 2 ? static_cast<index_t>(lists[1]->size()) : 1;
  const index_t ax_st = st_[axis];
  const index_t chunk = nrows / (static_cast<index_t>(pool.size()) * 8) + 1;

  auto row_base = [&](index_t r) {
    index_t base = 0;
    if (nlists == 2) {
      base = (*lists[0])[static_cast<std::size_t>(r / inner2)] * lstrides[0] +
             (*lists[1])[static_cast<std::size_t>(r % inner2)] * lstrides[1];
    } else if (nlists == 1) {
      base = (*lists[0])[static_cast<std::size_t>(r)] * lstrides[0];
    }
    return base;
  };

  const bool use_batched = batched_stages && pow2_[axis];
  if (!use_batched) {
    // Per-row path through the axis Fft1d (scalar plans and Bluestein axes),
    // one slice at a time.
    const fft::Fft1d<float>& plan = (dir == Direction::kForward ? plans_fwd_ : plans_inv_)[axis];
    pool.parallel_for_tid(nrows, chunk, [&](int tid, index_t rb, index_t re) {
      cfloat* row = bufs.get(ctx + tid);
      cfloat* fs = row + len;
      for (index_t r = rb; r < re; ++r) {
        const index_t base = row_base(r);
        for (index_t b = 0; b < nb; ++b) {
          cfloat* p = slabs + static_cast<std::size_t>(b) * static_cast<std::size_t>(slab_elems_) + base;
          if (ax_st == 1) {
            plan.transform(p, p, fs);
          } else {
            for (std::size_t k = 0; k < len; ++k) row[k] = p[static_cast<index_t>(k) * ax_st];
            plan.transform(row, row, fs);
            for (std::size_t k = 0; k < len; ++k) p[static_cast<index_t>(k) * ax_st] = row[k];
          }
        }
      }
    });
    return;
  }

  const AxisStages& stg =
      (dir == Direction::kForward ? stages_fwd_ : stages_inv_)[axis];
  const int sign = static_cast<int>(dir);
  // Rows are transformed in blocks of up to kRowBlock adjacent rows, which
  // become extra columns of one interleaved transform. A block is a run of
  // consecutive indices of the innermost row-coordinate list, so it never
  // crosses a gap between corner runs (the corner set is [0, n−n/2) ∪
  // [m−n/2, m)) or an outer row, and its rows sit `bstride` apart. A strided
  // axis blocks along the contiguous dimension (bstride 1), the contiguous
  // axis along the next axis out (bstride m[dim−1]).
  const std::vector<index_t>* ilist = nlists > 0 ? lists[nlists - 1] : nullptr;
  const index_t ilen = nlists > 0 ? static_cast<index_t>(ilist->size()) : 1;
  const auto bstride = static_cast<std::size_t>(nlists > 0 ? lstrides[nlists - 1] : 0);
  struct Block {
    index_t i0;  // first position in the innermost list
    index_t blk;
  };
  std::vector<Block> blocks;
  for (index_t i0 = 0; i0 < ilen;) {
    index_t blk = 1;
    while (blk < kRowBlock && i0 + blk < ilen &&
           (*ilist)[static_cast<std::size_t>(i0 + blk)] ==
               (*ilist)[static_cast<std::size_t>(i0)] + blk) {
      ++blk;
    }
    blocks.push_back({i0, blk});
    i0 += blk;
  }
  const auto nblocks = static_cast<index_t>(blocks.size());

  const auto unb = static_cast<std::size_t>(nb);
  const BlockGeom geom{len, static_cast<std::size_t>(ax_st), bstride,
                       static_cast<std::size_t>(slab_elems_), unb};

  const index_t ngroups = (nrows / ilen) * nblocks;
  const index_t gchunk = ngroups / (static_cast<index_t>(pool.size()) * 8) + 1;
  pool.parallel_for_tid(ngroups, gchunk, [&](int tid, index_t gb, index_t ge) {
    cfloat* const buf = bufs.get(ctx + tid);
    for (index_t gi = gb; gi < ge; ++gi) {
      const Block bk = blocks[static_cast<std::size_t>(gi % nblocks)];
      const index_t base = row_base((gi / nblocks) * ilen + bk.i0);
      const auto blk = static_cast<std::size_t>(bk.blk);
      const std::size_t cols = pad_cols(blk * unb);
      cfloat* cur = buf;
      cfloat* alt = buf + len * cols;
      move_block<true>(geom, slabs + base, blk, cur, cols);
      for (std::size_t pad = blk * unb; pad < cols; ++pad) {
        for (std::size_t k = 0; k < len; ++k) cur[k * cols + pad] = cfloat(0.0f, 0.0f);
      }
      // Stages ping-pong cur ↔ alt; stride starts at `cols` (one element of
      // every column between consecutive sub-transform elements).
      std::size_t nn = len;
      std::size_t sc = cols;
      for (std::size_t st_i = 0; st_i < stg.radix.size(); ++st_i) {
        const cfloat* tw = stg.tw[st_i].data();
        if (stg.radix[st_i] == 4) {
          if (avx2_) {
            stage4_cols_avx2(cur, alt, nn, sc, tw, sign);
          } else {
            detail::stage4_cols<Vec4f>(cur, alt, nn, sc, tw, sign);
          }
          nn /= 4;
          sc *= 4;
        } else {
          if (avx2_) {
            stage2_cols_avx2(cur, alt, nn, sc, tw);
          } else {
            detail::stage2_cols<Vec4f>(cur, alt, nn, sc, tw);
          }
          nn /= 2;
          sc *= 2;
        }
        std::swap(cur, alt);
      }
      move_block<false>(geom, slabs + base, blk, cur, cols);
    }
  });
}

}  // namespace nufft
