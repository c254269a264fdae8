// Fig. 7: relative cost of Part 1 (kernel coefficients + coordinates via
// LUT) versus Part 2 (the separable interpolation) of the convolution, for
// W = 2, 4, 6, 8. The paper's point: Part 2 dominates, increasingly so for
// larger W — which motivates the hybrid SIMD split (across-point Part 1,
// within-point SIMD Part 2). Part 1 runs as the sample loop runs it: the
// window block (core/window_span.hpp), four samples per call across SSE
// lanes, with W read at run time.
#include <algorithm>
#include <array>
#include <cstdio>

#include "common.hpp"
#include "core/batch_conv.hpp"
#include "core/window_span.hpp"
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

    WindowEval ev;
    ev.lut = &lut;
    const std::array<const float*, 3> coords{set.coords[0].data(), set.coords[1].data(),
                                             set.coords[2].data()};
    // Part 1 for samples p..p+3 (the last block padded).
    const auto part1 = [&](index_t p, WindowBuf* wbs) {
      const auto lanes =
          static_cast<int>(std::min<index_t>(detail::kBlockLanes, set.count() - p));
      detail::window_block<3, 0, false>(g, ev, coords, p, lanes, true, wbs);
      return lanes;
    };

    volatile float sink = 0.0f;
    // Part 1 only.
    const double t1 = time_call([&] {
      WindowBuf wbs[detail::kBlockLanes];
      float acc = 0.0f;
      for (index_t p = 0; p < set.count(); p += detail::kBlockLanes) {
        part1(p, wbs);
        acc += wbs[0].win[0][0];
      }
      sink = sink + acc;
    });
    // Part 1 + Part 2 (forward gather).
    const double t12 = time_call([&] {
      WindowBuf wbs[detail::kBlockLanes];
      cfloat acc(0, 0);
      for (index_t p = 0; p < set.count(); p += detail::kBlockLanes) {
        const int lanes = part1(p, wbs);
        for (int l = 0; l < lanes; ++l) {
          cfloat out;
          gather_slices<ConvBackend::kSse, 3, 1>(grid.data(), 0, 1, st, wbs[l], &out);
          acc += out;
        }
      }
      sink = sink + acc.real();
    });
    std::printf("%-5.0f %12.4f %12.4f %9.1f%% %9.1f%%\n", W, t1, t12, 100 * t1 / t12,
                100 * (t12 - t1) / t12);
  }
  return 0;
}
