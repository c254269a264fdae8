// Fig. 7: relative cost of Part 1 (kernel coefficients + coordinates via
// LUT) versus Part 2 (the separable interpolation) of the convolution, for
// W = 2, 4, 6, 8. The paper's point: Part 2 dominates, increasingly so for
// larger W — which motivates the hybrid SIMD split (scalar/across-point
// Part 1, within-point SIMD Part 2).
#include <cstdio>

#include "common.hpp"
#include "core/batch_conv.hpp"
#include "kernels/lut.hpp"

using namespace nufft;
using namespace nufft::bench;

int main() {
  print_header("Fig. 7 — Part 1 vs Part 2 share of forward convolution");
  const auto row = default_row_scaled();
  const auto set = make_set(datasets::TrajectoryType::kRandom, row);
  const GridDesc g = make_grid(3, row.n, 2.0);
  const auto st = g.grid_strides();
  const cvecf grid = random_values(g.grid_elems(), 3);

  std::printf("%-5s %12s %12s %10s %10s\n", "W", "part1 (s)", "part1+2 (s)", "part1 %",
              "part2 %");
  for (const double W : {2.0, 4.0, 6.0, 8.0}) {
    const auto kernel = kernels::make_kernel(kernels::KernelType::kKaiserBessel, W, 2.0);
    const kernels::KernelLut lut(*kernel, 1024);

    volatile float sink = 0.0f;
    // Part 1 only.
    const double t1 = time_call([&] {
      WindowBuf wb;
      float acc = 0.0f;
      for (index_t p = 0; p < set.count(); ++p) {
        float coord[3] = {set.coords[0][static_cast<std::size_t>(p)],
                          set.coords[1][static_cast<std::size_t>(p)],
                          set.coords[2][static_cast<std::size_t>(p)]};
        compute_window(g, lut, coord, 3, true, wb);
        acc += wb.win[0][0];
      }
      sink = sink + acc;
    });
    // Part 1 + Part 2 (forward gather).
    const double t12 = time_call([&] {
      WindowBuf wb;
      cfloat acc(0, 0);
      for (index_t p = 0; p < set.count(); ++p) {
        float coord[3] = {set.coords[0][static_cast<std::size_t>(p)],
                          set.coords[1][static_cast<std::size_t>(p)],
                          set.coords[2][static_cast<std::size_t>(p)]};
        compute_window(g, lut, coord, 3, true, wb);
        cfloat out;
        gather_slices<ConvBackend::kSse, 3, 1>(grid.data(), 0, 1, st, wb, &out);
        acc += out;
      }
      sink = sink + acc.real();
    });
    std::printf("%-5.0f %12.4f %12.4f %9.1f%% %9.1f%%\n", W, t1, t12, 100 * t1 / t12,
                100 * (t12 - t1) / t12);
  }
  return 0;
}
