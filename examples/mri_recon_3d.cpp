// Iterative multichannel 3D non-Cartesian MRI reconstruction — the paper's
// headline application (§I: a 240³ iterative multichannel reconstruction in
// ~3 minutes on 16 cores).
//
//   $ ./mri_recon_3d           # container-scale 48³ problem
//   $ NUFFT_MRI_N=240 NUFFT_THREADS=16 ./mri_recon_3d   # paper scale
//
// Pipeline: 3D phantom → synthetic coil sensitivities → simulate radial
// (kooshball) k-space data via one coil-batched forward NUFFT → CG on the
// normal equations. The right-hand side is one coil-batched adjoint; each
// iteration is one coil-batched Toeplitz apply (core/toeplitz.hpp): the
// plan's pruned FFT pair and a pointwise multiply per coil, no gridding.
#include <cstdio>

#include "common/env.hpp"
#include "common/timer.hpp"
#include "core/nufft.hpp"
#include "datasets/trajectory.hpp"
#include "mri/coils.hpp"
#include "mri/phantom.hpp"
#include "mri/recon.hpp"

int main() {
  using namespace nufft;

  const index_t N = env_int("NUFFT_MRI_N", 48);
  const int coils = static_cast<int>(env_int("NUFFT_MRI_COILS", 4));
  const int iters = static_cast<int>(env_int("NUFFT_MRI_ITERS", 12));
  const GridDesc grid = make_grid(3, N, 2.0);

  // Kooshball radial trajectory at ~0.75 sampling rate.
  datasets::TrajectoryParams params;
  params.n = N;
  params.k = 2 * N;
  params.s = std::max<index_t>(1, 3 * N * N / 4);
  const auto samples =
      datasets::make_trajectory(datasets::TrajectoryType::kRadial, 3, params);
  std::printf("MRI recon: N=%lld, %d coils, %lld k-space samples, %d CG iterations\n",
              static_cast<long long>(N), coils, static_cast<long long>(samples.count()), iters);

  PlanConfig cfg;
  cfg.threads = bench_threads();
  Timer plan_timer;
  Nufft plan(grid, samples, cfg);
  std::printf("plan built in %.3f s (%d tasks, %d privatized)\n", plan_timer.seconds(),
              plan.plan().stats.tasks, plan.plan().stats.privatized_tasks);

  const cvecf truth = mri::make_phantom(grid);
  Timer kernel_timer;
  mri::MultichannelRecon recon(plan, mri::make_coil_maps(grid, coils));
  std::printf("Toeplitz kernel built in %.3f s\n", kernel_timer.seconds());

  Timer sim_timer;
  const auto data = recon.simulate(truth.data());
  std::printf("simulated %d-coil acquisition in %.3f s\n", coils, sim_timer.seconds());

  mri::CgOptions opt;
  opt.max_iters = iters;
  opt.tolerance = 1e-8;
  const auto result = recon.reconstruct(data, opt);

  std::printf("reconstruction: %d iterations, %.0f coil normal applies (Toeplitz, batched), "
              "%.3f s total (%.4f s per coil apply)\n",
              result.cg.iterations, result.normal_applies, result.seconds,
              result.seconds / std::max(1.0, result.normal_applies));
  std::printf("NRMSE vs ground truth: %.4f\n",
              mri::nrmse(result.image.data(), truth.data(), grid.image_elems()));
  for (std::size_t i = 0; i < result.cg.residual_norms.size(); ++i) {
    std::printf("  CG iter %2zu  residual %.4e\n", i + 1, result.cg.residual_norms[i]);
  }
  return 0;
}
