// Ablation (iterative-solver cost model): applying the normal operator
// AᴴA through the explicit forward+adjoint NUFFT pair versus the Toeplitz
// kernel embedded in the plan's own grid (the plan's two pruned FFT passes
// and one pointwise multiply, no convolution), for one image and for an
// 8-coil batch as mri::MultichannelRecon runs it. The kernel is built once
// per trajectory (one adjoint of 2^d slices plus one full FFT, in chunks of
// the workspace capacity); the build column sets that against the
// per-apply saving. Both need the plan for the right-hand side.
#include <cstdio>
#include <optional>

#include "common.hpp"
#include "core/toeplitz.hpp"

using namespace nufft;
using namespace nufft::bench;

int main() {
  print_header("Ablation — normal operator: NUFFT pair vs Toeplitz embedding");
  const auto row = default_row_scaled();
  const GridDesc g = make_grid(3, row.n, 2.0);
  const int threads = bench_threads();

  std::printf("%-8s %12s %6s %11s %11s %13s %9s\n", "dataset", "samples", "coils", "build (s)",
              "pair (s)", "toeplitz (s)", "ratio");
  for (const auto& set : all_sets(row)) {
    const PlanConfig cfg = optimized_config(threads);
    Nufft plan(g, set, cfg);
    ThreadPool& pool = plan.pool();
    for (const index_t coils : {1, 8}) {
      Workspace ws = plan.make_workspace(coils);
      std::optional<ToeplitzNormal> normal;
      const double build = time_call([&] { normal.emplace(plan, ws, pool); }, 1);

      const auto nc = static_cast<std::size_t>(coils);
      std::vector<cvecf> x(nc);
      std::vector<cvecf> raw(nc, cvecf(static_cast<std::size_t>(set.count())));
      std::vector<cvecf> out(nc, cvecf(static_cast<std::size_t>(g.image_elems())));
      std::vector<const cfloat*> xp;
      std::vector<const cfloat*> rin;
      std::vector<cfloat*> rout;
      std::vector<cfloat*> op;
      for (std::size_t u = 0; u < nc; ++u) {
        x[u] = random_values(g.image_elems(), 4 + u);
        xp.push_back(x[u].data());
        rin.push_back(raw[u].data());
        rout.push_back(raw[u].data());
        op.push_back(out[u].data());
      }

      const double pair = time_call([&] {
        plan.forward(xp.data(), rout.data(), coils, ws, pool);
        plan.adjoint(rin.data(), op.data(), coils, ws, pool);
      });
      const double toep = time_call([&] { normal->apply(xp.data(), op.data(), coils, ws, pool); });
      std::printf("%-8s %12lld %6lld %11.4f %11.4f %13.4f %8.2fx\n",
                  datasets::trajectory_name(set.type), static_cast<long long>(set.count()),
                  static_cast<long long>(coils), build, pair, toep, pair / toep);
    }
  }
  std::printf("(Toeplitz trades the K·(2W)^d convolutions for one pointwise multiply on the\n"
              " plan's grid; the build is one adjoint of 2^d slices plus one full FFT)\n");
  return 0;
}
