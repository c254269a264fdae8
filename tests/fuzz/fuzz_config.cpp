#include "fuzz/fuzz_config.hpp"

#include <cmath>
#include <sstream>

#include "common/rng.hpp"
#include "core/tolerance.hpp"

namespace nufft::fuzz {

const char* coord_style_name(CoordStyle s) {
  switch (s) {
    case CoordStyle::kUniform:
      return "uniform";
    case CoordStyle::kInteger:
      return "integer";
    case CoordStyle::kHalfInteger:
      return "half-integer";
    case CoordStyle::kBoundary:
      return "boundary";
    default:
      return "clustered";
  }
}

bool FuzzConfig::footprint_exceeds_grid() const {
  const auto footprint = 2 * static_cast<index_t>(std::ceil(kernel_radius)) + 1;
  return m < footprint;
}

double FuzzConfig::nudft_tolerance() const {
  // Kernel-accuracy model, deliberately looser than the pinned accuracy
  // tests (tests/test_nufft.cpp): the fuzzer's job is to catch structural
  // disagreement between execution paths (wrong wrap, shift, scale, index),
  // which produces O(1) relative error, not to re-measure the kernel's
  // approximation floor on every adversarial geometry.
  const double W = kernel_radius;
  double tol;
  if (W <= 1.5) {
    tol = 5e-2;
  } else if (W <= 2.0) {
    tol = 2e-2;
  } else if (W <= 3.0) {
    tol = 5e-3;
  } else {
    tol = 1e-3;
  }
  // Low oversampling widens the aliasing floor dramatically.
  if (alpha < 1.6) {
    tol *= 50.0;
  } else if (alpha < 1.95) {
    tol *= 10.0;
  }
  // The Gaussian kernel is markedly less accurate than Kaiser–Bessel at
  // equal width, and tiny grids (few cells per footprint) sit closer to
  // the aliasing floor. (The ES kernel matches KB at equal width — no
  // adjustment.)
  if (kernel == kernels::KernelType::kGaussian) tol *= 10.0;
  if (m < 16) tol *= 5.0;
  return std::min(tol, 0.5);
}

std::string FuzzConfig::describe() const {
  std::ostringstream os;
  os << "seed=" << seed << " dim=" << dim << " n=" << n << " m=" << m << " alpha=" << alpha
     << " W=" << kernel_radius << " kernel="
     << (kernel == kernels::KernelType::kKaiserBessel
             ? "kb"
             : (kernel == kernels::KernelType::kEs ? "es" : "gauss"))
     << " eval=" << (eval == kernels::KernelEval::kHorner ? "horner" : "lut");
  if (tolerance > 0.0) os << " tol=" << tolerance;
  os << " threads=" << threads << " count=" << count << " style=" << coord_style_name(style)
     << " batch=" << batch << " pq=" << priority_queue << " priv=" << selective_privatization
     << " barrier=" << color_barrier_schedule << " varpart=" << variable_partitions
     << " reorder=" << reorder << " pfac=" << privatization_factor;
  if (update_frames > 0) {
    os << " frames=" << update_frames << " jitter=" << jitter_fraction;
  }
  return os.str();
}

namespace {

struct GridChoice {
  index_t n;
  double alpha;
};

// Grid families per dimension, sized so the O(N^d·K) NUDFT oracle stays
// cheap. Each family mixes power-of-two m (Stockham FFT), prime m
// (Bluestein), odd/composite m, and grids tiny enough that some kernel
// widths exceed them (the rejection path).
constexpr GridChoice kGrids1[] = {
    {64, 2.0},   // m = 128, pow2
    {48, 2.0},   // m = 96, composite
    {10, 1.3},   // m = 13, prime → Bluestein
    {31, 2.0},   // m = 62 = 2·31
    {5, 2.0},    // m = 10, tiny legal for W ≤ 4
    {3, 2.0},    // m = 6, rejected for W > 2.5
    {2, 2.0},    // m = 4, rejected for every W ≥ 1.5
    {2, 1.5},    // m = 3: at W = 4 the window spans > 2m (double wrap)
    {16, 1.25},  // m = 20, low oversampling
};
constexpr GridChoice kGrids2[] = {
    {16, 2.0},  // m = 32, pow2
    {10, 1.3},  // m = 13, prime
    {9, 2.0},   // m = 18, composite
    {6, 2.0},   // m = 12
    {3, 2.0},   // m = 6, rejected for W > 2.5
    {2, 2.0},   // m = 4, rejected always
    {2, 1.5},   // m = 3, double wrap at W = 4
    {12, 1.5},  // m = 18, low oversampling
    {11, 32.0 / 11},  // m = 32, pow2 with odd n: corner runs of 6 and 5 rows
};
constexpr GridChoice kGrids3[] = {
    {8, 2.0},   // m = 16, pow2
    {6, 2.0},   // m = 12
    {10, 1.3},  // m = 13, prime
    {5, 1.8},   // m = 9, odd composite
    {7, 2.0},   // m = 14
    {2, 2.0},   // m = 4, rejected always
    {2, 1.5},   // m = 3, double wrap at W = 4
    {7, 16.0 / 7},  // m = 16, pow2 with odd n: corner runs of 4 and 3 rows
};

constexpr double kRadii[] = {1.5, 2.0, 2.5, 3.0, 4.0};

}  // namespace

FuzzConfig make_fuzz_config(std::uint64_t seed) {
  // A distinct stream from the coordinate RNG (fuzz_runner.cpp mixes the
  // seed differently there) so config shape and sample data are independent.
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull);
  FuzzConfig c;
  c.seed = seed;

  c.dim = static_cast<int>(rng.below(3)) + 1;
  const GridChoice* grids = c.dim == 1 ? kGrids1 : (c.dim == 2 ? kGrids2 : kGrids3);
  const std::size_t ngrids =
      c.dim == 1 ? std::size(kGrids1) : (c.dim == 2 ? std::size(kGrids2) : std::size(kGrids3));
  const GridChoice gc = grids[rng.below(ngrids)];
  c.n = gc.n;
  c.alpha = gc.alpha;
  c.m = static_cast<index_t>(std::llround(gc.alpha * static_cast<double>(gc.n)));

  c.kernel_radius = kRadii[rng.below(std::size(kRadii))];
  const auto kpick = rng.below(8);
  c.kernel = kpick < 2 ? kernels::KernelType::kGaussian
                       : (kpick < 5 ? kernels::KernelType::kKaiserBessel
                                    : kernels::KernelType::kEs);
  c.lut_samples_per_unit = rng.below(2) == 0 ? 1024 : 512;
  // Every radius in kRadii is a multiple of 0.5, so the Horner evaluator's
  // 2W-integer precondition always holds; ES leans on Horner (its production
  // pairing), KB exercises it as the minority path, Gaussian stays on the
  // LUT (no Horner calibration).
  if (c.kernel == kernels::KernelType::kEs) {
    c.eval = rng.below(4) != 0 ? kernels::KernelEval::kHorner : kernels::KernelEval::kLut;
  } else if (c.kernel == kernels::KernelType::kKaiserBessel) {
    c.eval = rng.below(4) == 0 ? kernels::KernelEval::kHorner : kernels::KernelEval::kLut;
  }

  // A share of KB/ES seeds on calibrated grids (α = 2) go through
  // tolerance-driven planning. The resolved row is written back into the
  // config so the footprint/rejection logic and the error model see the
  // true kernel width the plan will use.
  if (c.alpha == 2.0 && c.kernel != kernels::KernelType::kGaussian && rng.below(4) == 0) {
    constexpr double kTols[] = {1e-2, 1e-3, 1e-4, 1e-5, 1e-6};
    c.tolerance = kTols[rng.below(std::size(kTols))];
    const auto row = resolve_tolerance(c.tolerance, c.kernel);
    c.kernel_radius = row.kernel_radius;
    c.lut_samples_per_unit = row.lut_samples_per_unit;
    c.eval = row.eval;
  }

  c.threads = static_cast<int>(rng.below(4)) + 1;

  // Sample-count families: the degenerate plans (0/1/2 samples — empty
  // partitions through the full scheduler) get a fixed share of seeds; the
  // rest are small or large enough to cross privatization thresholds.
  switch (rng.below(8)) {
    case 0:
      c.count = 0;
      break;
    case 1:
      c.count = 1;
      break;
    case 2:
      c.count = 2;
      break;
    case 3:
    case 4:
      c.count = 5 + static_cast<index_t>(rng.below(35));
      break;
    default:
      c.count = 60 + static_cast<index_t>(rng.below(140));
      break;
  }

  c.style = static_cast<CoordStyle>(rng.below(5));
  c.batch = 1 + static_cast<index_t>(rng.below(8));

  c.priority_queue = rng.below(2) == 0;
  c.selective_privatization = rng.below(4) != 0;
  c.color_barrier_schedule = rng.below(4) == 0;
  c.variable_partitions = rng.below(2) == 0;
  c.reorder = rng.below(2) == 0;
  // Factor < 1 lowers the Eq. 6 threshold → more privatized tasks.
  c.privatization_factor = rng.below(3) == 0 ? 0.25 : 1.0;
  // Unused draw, kept so every later field keeps its value for a given seed
  // (the pinned regression seeds in test_fuzz.cpp depend on their shapes).
  (void)rng.below(4);

  // Streaming trajectory deltas ride on a share of the seeds. These draws
  // come LAST so every field above keeps its value for a given seed — the
  // pinned regression seeds in test_fuzz.cpp were scanned against the
  // pre-streaming generator and must keep their shapes.
  if (rng.below(3) == 0) {
    c.update_frames = 1 + static_cast<int>(rng.below(3));
    constexpr double kJitter[] = {0.0, 0.02, 0.05, 0.3, 1.0};
    c.jitter_fraction = kJitter[rng.below(std::size(kJitter))];
  }

  return c;
}

}  // namespace nufft::fuzz
