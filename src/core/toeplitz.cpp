#include "core/toeplitz.hpp"

#include <algorithm>
#include <array>
#include <numbers>
#include <vector>

#include "common/error.hpp"
#include "fft/fftnd.hpp"
#include "obs/trace.hpp"

namespace nufft {

namespace {

// The grid as three axes, unit axes first (row-major, last axis contiguous),
// so one loop nest serves d = 1, 2, 3. Along an axis, image index i sits at
// the plan's wrap position (i − h) mod m with h = ⌊n/2⌋: grid [0, n − h)
// holds image [h, n), grid [m − h, m) holds image [0, h), the rest is padding.
struct Axes {
  std::array<index_t, 3> n{1, 1, 1};
  std::array<index_t, 3> m{1, 1, 1};
  std::array<index_t, 3> h{0, 0, 0};

  explicit Axes(const GridDesc& g) {
    for (int d = 0; d < g.dim; ++d) {
      const auto a = static_cast<std::size_t>(d + 3 - g.dim);
      n[a] = g.n[static_cast<std::size_t>(d)];
      m[a] = g.m[static_cast<std::size_t>(d)];
      h[a] = n[a] / 2;
    }
  }
  index_t to_grid(std::size_t a, index_t i) const { return i >= h[a] ? i - h[a] : i - h[a] + m[a]; }
  /// Image index at grid index g, −1 on padding.
  index_t to_image(std::size_t a, index_t g) const {
    if (g < n[a] - h[a]) return g + h[a];
    if (g >= m[a] - h[a]) return g - (m[a] - h[a]);
    return -1;
  }
};

// Write every cell of a slab once: image values at the wrap positions, zero
// elsewhere (Nufft::image_to_grid without its scale).
void pad(const Axes& ax, const cfloat* image, cfloat* grid, ThreadPool& pool) {
  const index_t m2 = ax.m[2];
  const index_t n2 = ax.n[2];
  const index_t h2 = ax.h[2];
  pool.parallel_for(ax.m[0] * ax.m[1], [&](index_t b, index_t e) {
    for (index_t g01 = b; g01 < e; ++g01) {
      cfloat* row = grid + g01 * m2;
      const index_t i0 = ax.to_image(0, g01 / ax.m[1]);
      const index_t i1 = ax.to_image(1, g01 % ax.m[1]);
      if (i0 < 0 || i1 < 0) {
        zero_complex(row, static_cast<std::size_t>(m2));
        continue;
      }
      const cfloat* src = image + (i0 * ax.n[1] + i1) * n2;
      std::copy(src + h2, src + n2, row);
      zero_complex(row + (n2 - h2), static_cast<std::size_t>(m2 - n2));
      std::copy(src, src + h2, row + (m2 - h2));
    }
  });
}

// Read an image back from the corner cells of its slab.
void crop(const Axes& ax, const cfloat* grid, cfloat* image, ThreadPool& pool) {
  const index_t m2 = ax.m[2];
  const index_t n2 = ax.n[2];
  const index_t h2 = ax.h[2];
  pool.parallel_for(ax.n[0] * ax.n[1], [&](index_t b, index_t e) {
    for (index_t i01 = b; i01 < e; ++i01) {
      const index_t g0 = ax.to_grid(0, i01 / ax.n[1]);
      const index_t g1 = ax.to_grid(1, i01 % ax.n[1]);
      const cfloat* row = grid + (g0 * ax.m[1] + g1) * m2;
      cfloat* dst = image + i01 * n2;
      std::copy(row, row + (n2 - h2), dst + h2);
      std::copy(row + (m2 - h2), row + m2, dst);
    }
  });
}

}  // namespace

ToeplitzNormal::ToeplitzNormal(const Nufft& plan, Workspace& ws, ThreadPool& pool,
                               const float* weights)
    : plan_(&plan), generation_(plan.plan_stats().generation) {
  const GridDesc& g = plan.grid_desc();
  const int dim = g.dim;
  for (int d = 0; d < dim; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    NUFFT_CHECK_MSG(g.m[ds] >= 2 * g.n[ds] - 1,
                    "Toeplitz embedding needs m >= 2n - 1 per dimension; grid dimension "
                        << d << " has n = " << g.n[ds] << ", m = " << g.m[ds]
                        << " (alpha = " << g.alpha << ")");
  }
  const auto slab = static_cast<std::size_t>(g.grid_elems());
  plan.check_workspace(ws);
  const index_t count = plan.sample_count();
  if (weights != nullptr) {
    for (index_t i = 0; i < count; ++i) {
      NUFFT_CHECK_MSG(weights[i] >= 0.0f, "normal-operator weights must be non-negative");
    }
  }

  // q through one adjoint apply of 2^d slices (in chunks of ws.capacity):
  // slice s carries W·e^{+2πi Σ_d (w_d − M_d/2)·s_d/M_d} with
  // s_d = +⌊n_d/2⌋ when bit d of s is set, −⌊n_d/2⌋ otherwise, so its
  // centered image index n holds q[n + s]. The ± phases of one dimension are
  // conjugates, so a sample needs d sincos for all 2^d slices.
  const index_t nslices = index_t{1} << dim;
  const index_t nimg = g.image_elems();
  const Preprocessed& pp = plan.plan();
  cvecf images(static_cast<std::size_t>(nslices * nimg));
  {
    cvecf raws(static_cast<std::size_t>(nslices * count));
    pool.parallel_for(count, [&](index_t b, index_t e) {
      for (index_t j = b; j < e; ++j) {
        const index_t orig = pp.orig_index[static_cast<std::size_t>(j)];
        std::array<cdouble, 3> u{};
        for (int d = 0; d < dim; ++d) {
          const auto ds = static_cast<std::size_t>(d);
          const auto m = static_cast<double>(g.m[ds]);
          const double w = static_cast<double>(pp.coords[ds][static_cast<std::size_t>(j)]);
          u[ds] = std::polar(1.0, 2.0 * std::numbers::pi * (w - m / 2.0) *
                                      static_cast<double>(g.n[ds] / 2) / m);
        }
        const double wt = weights != nullptr ? weights[orig] : 1.0;
        for (index_t s = 0; s < nslices; ++s) {
          cdouble v(wt, 0.0);
          for (int d = 0; d < dim; ++d) {
            const cdouble ud = u[static_cast<std::size_t>(d)];
            v *= (s >> d) & 1 ? ud : std::conj(ud);
          }
          raws[static_cast<std::size_t>(s * count + orig)] = cfloat(v);
        }
      }
    });
    std::array<const cfloat*, 8> rp{};
    std::array<cfloat*, 8> ip{};
    for (index_t s = 0; s < nslices; ++s) {
      rp[static_cast<std::size_t>(s)] = raws.data() + s * count;
      ip[static_cast<std::size_t>(s)] = images.data() + s * nimg;
    }
    plan.adjoint(rp.data(), ip.data(), nslices, ws, pool);
  }

  // t[δ mod M] = q[δ] for δ ∈ (−N, N)^d, zero elsewhere, built in the first
  // workspace slab. At M = 2N that zeroes the δ = −N planes the even-N
  // slices also produce, so t is Hermitian for real weights and T̂ is real.
  const Axes ax(g);
  cfloat* t = ws.grid.data();
  zero_complex(t, slab);
  for (index_t s = 0; s < nslices; ++s) {
    std::array<index_t, 3> shift{0, 0, 0};
    for (int d = 0; d < dim; ++d) {
      const auto a = static_cast<std::size_t>(d + 3 - dim);
      shift[a] = (s >> d) & 1 ? ax.h[a] : -ax.h[a];
    }
    auto cell = [&](std::size_t a, index_t i) -> index_t {
      const index_t delta = i - ax.h[a] + shift[a];
      if (delta <= -ax.n[a] || delta >= ax.n[a]) return -1;
      return delta < 0 ? delta + ax.m[a] : delta;
    };
    const cfloat* q = images.data() + s * nimg;
    for (index_t i0 = 0; i0 < ax.n[0]; ++i0) {
      const index_t c0 = cell(0, i0);
      if (c0 < 0) continue;
      for (index_t i1 = 0; i1 < ax.n[1]; ++i1) {
        const index_t c1 = cell(1, i1);
        if (c1 < 0) continue;
        cfloat* row = t + (c0 * ax.m[1] + c1) * ax.m[2];
        const cfloat* src = q + (i0 * ax.n[1] + i1) * ax.n[2];
        for (index_t i2 = 0; i2 < ax.n[2]; ++i2) {
          const index_t c2 = cell(2, i2);
          if (c2 >= 0) row[c2] = src[i2];
        }
      }
    }
  }

  std::vector<std::size_t> dims;
  for (int d = 0; d < dim; ++d) {
    dims.push_back(static_cast<std::size_t>(g.m[static_cast<std::size_t>(d)]));
  }
  fft::FftNd<float>(dims, fft::Direction::kForward).transform(t, pool);
  const float inv_total = 1.0f / static_cast<float>(slab);
  kernel_.resize(slab);
  for (std::size_t i = 0; i < slab; ++i) kernel_[i] = t[i].real() * inv_total;
}

void ToeplitzNormal::apply(const cfloat* const* in, cfloat* const* out, index_t nb, Workspace& ws,
                           ThreadPool& pool) const {
  NUFFT_CHECK(nb >= 1);
  NUFFT_CHECK_MSG(current(), "Toeplitz kernel built at plan generation "
                                 << generation_ << ", but the plan is at generation "
                                 << plan_->plan_stats().generation
                                 << "; rebuild it after update_samples");
  const GridDesc& g = plan_->grid_desc();
  const auto slab = static_cast<std::size_t>(g.grid_elems());
  plan_->check_workspace(ws);
  const Axes ax(g);
  cfloat* const grid = ws.grid.data();
  const float* const kernel = kernel_.data();
  obs::Span span("toeplitz.apply", "core", nb);
  for (index_t off = 0; off < nb; off += ws.capacity) {
    // One body per slice, on the slice's own slab: whole slices keep their
    // entire normal-operator apply on one core (ThreadPool::for_each_slice).
    pool.for_each_slice(std::min(ws.capacity, nb - off), [&](int, index_t k, ThreadPool& p) {
      const index_t b = off + k;
      obs::Span slice("toeplitz.slice", "core", b);
      cfloat* const cells = grid + static_cast<std::size_t>(k) * slab;
      pad(ax, in[b], cells, p);
      {
        obs::Span s("nufft.fft", "core", 1);
        plan_->grid_fft(cells, 1, fft::Direction::kForward, p);
      }
      p.parallel_for(static_cast<index_t>(slab), [&](index_t lo, index_t hi) {
        for (index_t i = lo; i < hi; ++i) cells[i] *= kernel[i];
      });
      {
        obs::Span s("nufft.fft", "core", 1);
        plan_->grid_fft(cells, 1, fft::Direction::kInverse, p);
      }
      crop(ax, cells, out[b], p);
    });
  }
}

}  // namespace nufft
