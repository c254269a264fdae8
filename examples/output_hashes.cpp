// Output-hash probe: FNV-1a hashes of forward and adjoint outputs through
// the apply driver, so two builds can be checked for bitwise-equal results
// without keeping their outputs around.
//
//   $ ./build/examples/nufft_output_hashes > after.txt
//   $ diff before.txt after.txt      # before.txt: the same tool, older tree
//
// One line per (backend, grid, kernel/evaluator, pool width) — {scalar, sse,
// avx2} × {d1 m1024, d2 m96, d2 m64, d3 m32} × {kb.lut, es.horner} ×
// pool {1, 3} — with the hashes of the forward and adjoint of a single
// apply (nb = 1) and of an 8-slice apply (nb = 8), and on 2-D and 3-D grids
// of an 8-slice ToeplitzNormal::apply (`toep8`). Then one `sse.stages` line
// per power-of-two grid: the SSE-width FFT column stages alone (BatchFft
// with avx2 = false, the plan's corner wrap lists), forward and inverse at
// nb = 1 and 8; plans take the AVX2 stages on an AVX2 host, so no line
// above runs these there. Then the runtime-W lines: {scalar, sse} ×
// {d2 m64 ES/Horner W = 1.5, d3 m32 KB/LUT W = 4.5} × pool {1, 3}, with the
// nb = 1 and nb = 8 hashes. The last line hashes every line above it. Rows
// for AVX2 print "skipped" on CPUs without AVX2+FMA, so compare files from
// one host.
//
// The grids cover both FFT routes: m = 96 runs Bluestein rows, the others
// are powers of two and run the column stages (m = 64 is the 2-D transform
// of the small serving and streaming plans). The plans cover both Part-1
// routes: KB/LUT at the default W = 4 and ES/Horner at W = 2 (2-D) and 3
// (3-D) bind constexpr-W variants; ES/Horner at W = 4.5 (1-D) and the
// runtime-W lines bind the runtime-W ones. Every plan holds a few thousand
// variable-density samples, so its tasks run several value blocks.
#include <array>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "core/batch_fft.hpp"
#include "core/convolution_avx2.hpp"
#include "core/nufft.hpp"
#include "core/toeplitz.hpp"
#include "datasets/trajectory.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace nufft;

constexpr index_t kBatch = 8;

/// FNV-1a over the bytes of `n` complex values, continuing from `h`.
std::uint64_t fnv1a(const cfloat* v, index_t n, std::uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = reinterpret_cast<const unsigned char*>(v);
  for (std::size_t i = 0; i < static_cast<std::size_t>(n) * sizeof(cfloat); ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

cvecf random_values(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  cvecf v(static_cast<std::size_t>(n));
  for (auto& x : v) {
    x = cfloat(static_cast<float>(rng.uniform(-1, 1)), static_cast<float>(rng.uniform(-1, 1)));
  }
  return v;
}

struct Hashes {
  std::uint64_t fwd1, adj1, fwd8, adj8, toep8;
};

/// Forward and adjoint of one plan at nb = 1 and nb = kBatch, and the
/// Toeplitz normal operator at nb = kBatch when `toeplitz` is set.
Hashes run(const Nufft& plan, ThreadPool& pool, bool toeplitz) {
  const index_t ni = plan.image_elems();
  const index_t ns = plan.sample_count();
  const cvecf images = random_values(kBatch * ni, 11);
  const cvecf raws = random_values(kBatch * ns, 12);
  cvecf fwd(static_cast<std::size_t>(kBatch * ns));
  cvecf adj(static_cast<std::size_t>(kBatch * ni));
  std::vector<const cfloat*> img_in(kBatch), raw_in(kBatch);
  std::vector<cfloat*> fwd_out(kBatch), adj_out(kBatch);
  for (index_t b = 0; b < kBatch; ++b) {
    const auto u = static_cast<std::size_t>(b);
    img_in[u] = images.data() + b * ni;
    raw_in[u] = raws.data() + b * ns;
    fwd_out[u] = fwd.data() + b * ns;
    adj_out[u] = adj.data() + b * ni;
  }

  Hashes h{};
  Workspace ws1 = plan.make_workspace(1);
  plan.forward(img_in[0], fwd_out[0], ws1, pool);
  h.fwd1 = fnv1a(fwd.data(), ns);
  plan.adjoint(raw_in[0], adj_out[0], ws1, pool);
  h.adj1 = fnv1a(adj.data(), ni);

  Workspace ws8 = plan.make_workspace(kBatch);
  plan.forward(img_in.data(), fwd_out.data(), kBatch, ws8, pool);
  h.fwd8 = fnv1a(fwd.data(), kBatch * ns);
  plan.adjoint(raw_in.data(), adj_out.data(), kBatch, ws8, pool);
  h.adj8 = fnv1a(adj.data(), kBatch * ni);

  if (toeplitz) {
    const ToeplitzNormal normal(plan, ws8, pool);
    normal.apply(img_in.data(), adj_out.data(), kBatch, ws8, pool);
    h.toep8 = fnv1a(adj.data(), kBatch * ni);
  }
  return h;
}

struct Shape {
  int dim;
  index_t n;  // image size; the grid is m = 2n
};

constexpr Shape kShapes[] = {{1, 512}, {2, 48}, {2, 32}, {3, 16}};

datasets::SampleSet samples_for(const Shape& shape) {
  datasets::TrajectoryParams p;
  p.n = shape.n;
  p.k = 96;
  p.s = 64;
  p.seed = 77 + static_cast<std::uint64_t>(shape.dim);
  return datasets::make_trajectory(datasets::TrajectoryType::kRandom, shape.dim, p);
}

struct Backend {
  const char* name;
  bool simd;
  SimdIsa isa;
};

constexpr Backend kBackends[] = {
    {"scalar", false, SimdIsa::kSse}, {"sse", true, SimdIsa::kSse}, {"avx2", true, SimdIsa::kAvx2}};

/// The plan of one line; W = 0 keeps the line's default width.
PlanConfig config_for(const Backend& backend, int dim, bool horner, int threads,
                      double W = 0.0) {
  PlanConfig cfg;
  cfg.threads = threads;
  cfg.use_simd = backend.simd;
  cfg.isa = backend.isa;
  if (horner) {
    cfg.kernel = kernels::KernelType::kEs;
    cfg.eval = kernels::KernelEval::kHorner;
    cfg.kernel_radius = dim == 1 ? 4.5 : (dim == 2 ? 2.0 : 3.0);
  }
  if (W > 0.0) cfg.kernel_radius = W;
  return cfg;
}

/// A width outside the constexpr-W table, so the plan binds a runtime-W
/// variant.
struct RuntimeWidth {
  Shape shape;
  bool horner;
  double W;
};

constexpr RuntimeWidth kRuntimeWidths[] = {{{2, 32}, true, 1.5}, {{3, 16}, false, 4.5}};

/// The plan's wrap lists: image index i of a dimension sits at grid index
/// (i − ⌊n/2⌋) mod m.
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

/// The SSE-width column stages: forward at nb = 1 and kBatch, then inverse.
std::vector<std::uint64_t> run_sse_stages(const GridDesc& g) {
  const BatchFft fft(g, wrap_lists(g), /*avx2=*/false);
  ThreadPool pool(1);
  const index_t slab = g.grid_elems();
  const cvecf input = random_values(kBatch * slab, 13);
  std::vector<std::uint64_t> h;
  for (const fft::Direction dir : {fft::Direction::kForward, fft::Direction::kInverse}) {
    for (const index_t nb : {index_t{1}, kBatch}) {
      cvecf x(input.begin(), input.begin() + nb * slab);
      fft.transform(x.data(), nb, dir, pool, /*batched_stages=*/true);
      h.push_back(fnv1a(x.data(), nb * slab));
    }
  }
  return h;
}

void fold_into(std::uint64_t& all, const std::vector<std::uint64_t>& line) {
  for (const std::uint64_t x : line) {
    for (int i = 0; i < 8; ++i) {
      all ^= (x >> (8 * i)) & 0xffu;
      all *= 0x100000001b3ull;
    }
  }
}

}  // namespace

int main() {
  std::uint64_t all = 0xcbf29ce484222325ull;
  for (const Backend& backend : kBackends) {
    for (const Shape& shape : kShapes) {
      const int dim = shape.dim;
      const datasets::SampleSet set = samples_for(shape);
      const GridDesc g = make_grid(dim, set.m / 2, 2.0);
      for (const bool horner : {false, true}) {
        for (const int threads : {1, 3}) {
          std::printf("%-6s d%d m%-4lld %-9s pool%d ", backend.name, dim,
                      static_cast<long long>(g.m[0]), horner ? "es.horner" : "kb.lut", threads);
          if (backend.isa == SimdIsa::kAvx2 && !avx2_available()) {
            std::printf("skipped\n");
            continue;
          }
          const Nufft plan(g, set, config_for(backend, dim, horner, threads));
          ThreadPool pool(threads);
          const bool toeplitz = dim >= 2;
          const Hashes h = run(plan, pool, toeplitz);
          std::printf("fwd1=%016llx adj1=%016llx fwd8=%016llx adj8=%016llx",
                      static_cast<unsigned long long>(h.fwd1),
                      static_cast<unsigned long long>(h.adj1),
                      static_cast<unsigned long long>(h.fwd8),
                      static_cast<unsigned long long>(h.adj8));
          if (toeplitz) std::printf(" toep8=%016llx", static_cast<unsigned long long>(h.toep8));
          std::printf(" %s\n", plan.plan_stats().conv_variant.c_str());
          std::vector<std::uint64_t> line{h.fwd1, h.adj1, h.fwd8, h.adj8};
          if (toeplitz) line.push_back(h.toep8);
          fold_into(all, line);
        }
      }
    }
  }
  for (const Shape& shape : kShapes) {
    const GridDesc g = make_grid(shape.dim, shape.n, 2.0);
    if (!fft::is_pow2(static_cast<std::size_t>(g.m[0]))) continue;  // Bluestein: no stages
    const std::vector<std::uint64_t> h = run_sse_stages(g);
    std::printf("sse.stages d%d m%-4lld fwd1=%016llx fwd8=%016llx inv1=%016llx inv8=%016llx\n",
                shape.dim, static_cast<long long>(g.m[0]), static_cast<unsigned long long>(h[0]),
                static_cast<unsigned long long>(h[1]), static_cast<unsigned long long>(h[2]),
                static_cast<unsigned long long>(h[3]));
    fold_into(all, h);
  }
  for (const Backend& backend : {kBackends[0], kBackends[1]}) {
    for (const RuntimeWidth& rw : kRuntimeWidths) {
      const int dim = rw.shape.dim;
      const datasets::SampleSet set = samples_for(rw.shape);
      const GridDesc g = make_grid(dim, set.m / 2, 2.0);
      for (const int threads : {1, 3}) {
        std::printf("%-6s d%d m%-4lld %s.w%.1f pool%d ", backend.name, dim,
                    static_cast<long long>(g.m[0]), rw.horner ? "es.horner" : "kb.lut", rw.W,
                    threads);
        const Nufft plan(g, set, config_for(backend, dim, rw.horner, threads, rw.W));
        ThreadPool pool(threads);
        const Hashes h = run(plan, pool, /*toeplitz=*/false);
        std::printf("fwd1=%016llx adj1=%016llx fwd8=%016llx adj8=%016llx %s\n",
                    static_cast<unsigned long long>(h.fwd1),
                    static_cast<unsigned long long>(h.adj1),
                    static_cast<unsigned long long>(h.fwd8),
                    static_cast<unsigned long long>(h.adj8),
                    plan.plan_stats().conv_variant.c_str());
        fold_into(all, {h.fwd1, h.adj1, h.fwd8, h.adj8});
      }
    }
  }
  std::printf("all    %016llx\n", static_cast<unsigned long long>(all));
  return 0;
}
