// Micro-benchmarks (google-benchmark): the primitive operations underneath
// the table/figure benches — FFT sizes, kernel evaluation, LUT lookups,
// window computation, histogram/partitioning, scheduler round trips.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "common.hpp"
#include "core/batch_conv.hpp"
#include "core/conv_variants.hpp"
#include "core/convolution.hpp"
#include "core/convolution_avx2.hpp"
#include "core/toeplitz.hpp"
#include "fft/fft1d.hpp"
#include "fft/fftnd.hpp"
#include "kernels/bessel.hpp"
#include "kernels/kaiser_bessel.hpp"
#include "kernels/lut.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "parallel/partitioner.hpp"
#include "parallel/scheduler.hpp"

namespace {

using namespace nufft;

void BM_Fft1dPow2(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  fft::Fft1d<float> plan(n, fft::Direction::kForward);
  aligned_vector<cfloat> data = bench::random_values(static_cast<index_t>(n), 1);
  aligned_vector<cfloat> out(n), scratch(plan.scratch_size());
  for (auto _ : state) {
    plan.transform(data.data(), out.data(), scratch.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fft1dPow2)->Arg(64)->Arg(256)->Arg(512)->Arg(1024);

void BM_Fft1dBluestein(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  fft::Fft1d<float> plan(n, fft::Direction::kForward);
  aligned_vector<cfloat> data = bench::random_values(static_cast<index_t>(n), 2);
  aligned_vector<cfloat> out(n), scratch(plan.scratch_size());
  for (auto _ : state) {
    plan.transform(data.data(), out.data(), scratch.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Fft1dBluestein)->Arg(160)->Arg(480)->Arg(640);

void BM_Fft3d(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  fft::FftNd<float> plan({n, n, n}, fft::Direction::kForward);
  aligned_vector<cfloat> data = bench::random_values(static_cast<index_t>(n * n * n), 3);
  ThreadPool pool(bench_threads());
  for (auto _ : state) {
    plan.transform(data.data(), pool);
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_Fft3d)->Arg(32)->Arg(64);

// The plan's own FFT (Nufft::grid_fft: pruned, column stages) on nb slabs,
// args {dim, m, nb, direction (0 forward, 1 inverse)}. Each iteration starts
// from the same input, copied in untimed. `per_slice` is the time per slice.
void BM_PlanFft(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  const index_t m = state.range(1);
  const index_t nb = state.range(2);
  const auto dir = state.range(3) == 0 ? fft::Direction::kForward : fft::Direction::kInverse;
  datasets::TrajectoryParams p;
  p.n = m / 2;
  p.k = 64;
  p.s = 16;
  const datasets::SampleSet set =
      datasets::make_trajectory(datasets::TrajectoryType::kRandom, dim, p);
  const Nufft plan(make_grid(dim, m / 2, 2.0), set, bench::optimized_config(bench_threads()));
  const auto slab = static_cast<std::size_t>(plan.grid_desc().grid_elems());
  const cvecf src = bench::random_values(static_cast<index_t>(slab), 5);
  aligned_vector<cfloat> buf(static_cast<std::size_t>(nb) * slab);
  for (auto _ : state) {
    state.PauseTiming();
    for (index_t b = 0; b < nb; ++b) {
      std::copy(src.begin(), src.end(), buf.begin() + static_cast<std::ptrdiff_t>(b * slab));
    }
    state.ResumeTiming();
    plan.grid_fft(buf.data(), nb, dir, plan.pool());
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_slice"] =
      benchmark::Counter(static_cast<double>(state.iterations() * nb),
                         benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_PlanFft)
    ->ArgsProduct({{3}, {128, 64}, {1, 8}, {0, 1}})
    ->ArgsProduct({{2}, {256}, {1, 8}, {0, 1}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ToeplitzNormal::apply on nb slices through a capacity-nb workspace, args
// {dim, m, nb}; 3-D m 64 nb 8 is the apply of one mri_cg3d CG iteration.
// Inputs and outputs are distinct buffers, so every iteration reads the same
// input. `per_slice` is the time per slice.
void BM_ToeplitzApply(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  const index_t m = state.range(1);
  const index_t nb = state.range(2);
  datasets::TrajectoryParams p;
  p.n = m / 2;
  p.k = 64;
  p.s = 16;
  const datasets::SampleSet set =
      datasets::make_trajectory(datasets::TrajectoryType::kRandom, dim, p);
  const Nufft plan(make_grid(dim, m / 2, 2.0), set, bench::optimized_config(bench_threads()));
  Workspace ws = plan.make_workspace(nb);
  const ToeplitzNormal normal(plan, ws, plan.pool());
  const cvecf x = bench::random_values(plan.image_elems(), 5);
  std::vector<cvecf> y(static_cast<std::size_t>(nb), cvecf(x.size()));
  std::vector<const cfloat*> in(static_cast<std::size_t>(nb), x.data());
  std::vector<cfloat*> out;
  for (auto& v : y) out.push_back(v.data());
  for (auto _ : state) {
    normal.apply(in.data(), out.data(), nb, ws, plan.pool());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_slice"] =
      benchmark::Counter(static_cast<double>(state.iterations() * nb),
                         benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ToeplitzApply)
    ->Args({3, 64, 8})
    ->Args({3, 128, 8})
    ->Args({2, 256, 8})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_BesselI0(benchmark::State& state) {
  double x = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::bessel_i0(x));
    x += 0.37;
    if (x > 35.0) x = 0.1;
  }
}
BENCHMARK(BM_BesselI0);

void BM_KaiserBesselValue(benchmark::State& state) {
  const auto kb = kernels::KaiserBessel::with_beatty_beta(4.0, 2.0);
  double d = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kb.value(d));
    d += 0.013;
    if (d > 4.0) d = 0.0;
  }
}
BENCHMARK(BM_KaiserBesselValue);

void BM_LutLookup(benchmark::State& state) {
  const auto kb = kernels::KaiserBessel::with_beatty_beta(4.0, 2.0);
  const kernels::KernelLut lut(kb, 1024);
  float d = 0.0f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lut(d));
    d += 0.013f;
    if (d > 4.0f) d = 0.0f;
  }
}
BENCHMARK(BM_LutLookup);

void BM_ComputeWindow3d(benchmark::State& state) {
  const GridDesc g = make_grid(3, 64, 2.0);
  const auto kb = kernels::KaiserBessel::with_beatty_beta(
      static_cast<double>(state.range(0)), 2.0);
  const kernels::KernelLut lut(kb, 1024);
  WindowBuf wb;
  float c = 17.3f;
  for (auto _ : state) {
    float coord[3] = {c, c + 11.1f, c + 23.7f};
    compute_window(g, lut, coord, 3, true, wb);
    benchmark::DoNotOptimize(wb.win[0][0]);
    c += 0.37f;
    if (c > 90.0f) c = 17.3f;
  }
}
BENCHMARK(BM_ComputeWindow3d)->Arg(2)->Arg(4)->Arg(8);

// Part 1 as the sample loop runs it (detail::stage_windows: window blocks
// of four plan-order samples, the last one of a range padded) over every
// task range of a one-thread SSE plan; `per_sample` is the time per sample.
// Arg: 0 = 2-D ES W = 2 (Horner) at m = 256, the stream2d_frames shape;
// 1 = 2-D KB W = 4 (LUT) at m = 64, the serve_loopback plans; 2 = 3-D ES
// W = 3 (Horner) at m = 128, the apply3d_es shape.
template <int DIM, int W2, bool HORNER>
void part1_range(benchmark::State& state, index_t m, index_t count) {
  datasets::TrajectoryParams p;
  p.n = m / 2;
  p.k = 256;
  p.s = count / p.k;
  const datasets::SampleSet set =
      datasets::make_trajectory(datasets::TrajectoryType::kRandom, DIM, p);
  PlanConfig cfg = bench::optimized_config(1, 0.5 * W2);
  cfg.isa = SimdIsa::kSse;
  if (HORNER) {
    cfg.kernel = kernels::KernelType::kEs;
    cfg.eval = kernels::KernelEval::kHorner;
  }
  const Nufft plan(make_grid(DIM, p.n, 2.0), set, cfg);
  if (plan.conv_variant().key.width2 != W2) {
    state.SkipWithError("the plan did not bind the constexpr-W variant");
    return;
  }
  for (auto _ : state) {
    WindowBuf wbs[detail::kBlockLanes];
    for (const ConvTask& t : plan.plan().tasks) {
      const ConvRange r = plan.conv_range(t, false);
      for (index_t s = r.begin; s < r.end; s += detail::kBlockLanes) {
        detail::stage_windows<ConvBackend::kSse, DIM, W2, HORNER>(
            r, s, std::min<index_t>(detail::kBlockLanes, r.end - s), wbs);
        benchmark::DoNotOptimize(wbs);
      }
    }
    benchmark::ClobberMemory();
  }
  state.counters["per_sample"] =
      benchmark::Counter(static_cast<double>(state.iterations() * set.count()),
                         benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_Part1Range(benchmark::State& state) {
  switch (state.range(0)) {
    case 0:
      return part1_range<2, 4, true>(state, 256, 65536);
    case 1:
      return part1_range<2, 8, false>(state, 64, 4096);
    default:
      return part1_range<3, 6, true>(state, 128, 65536);
  }
}
BENCHMARK(BM_Part1Range)->DenseRange(0, 2)->UseRealTime();

// Part 2 of one 3-D sample at slice-group width 1, as a single apply runs
// it: args {W, the AVX2 instantiation (1) or the SSE one (0)}.
bool skip_without_isa(benchmark::State& state) {
  if (state.range(1) != 0 && !avx2_available()) {
    state.SkipWithError("CPU does not support AVX2 + FMA");
    return true;
  }
  return false;
}

void BM_ScatterSimd3d(benchmark::State& state) {
  if (skip_without_isa(state)) return;
  const auto scatter = state.range(1) != 0 ? &scatter_slices<ConvBackend::kAvx2, 3, 1>
                                           : &scatter_slices<ConvBackend::kSse, 3, 1>;
  const GridDesc g = make_grid(3, 64, 2.0);
  const auto kb = kernels::KaiserBessel::with_beatty_beta(
      static_cast<double>(state.range(0)), 2.0);
  const kernels::KernelLut lut(kb, 1024);
  const auto st = g.grid_strides();
  cvecf grid(static_cast<std::size_t>(g.grid_elems()), cfloat(0, 0));
  WindowBuf wb;
  float coord[3] = {40.3f, 51.7f, 66.1f};
  compute_window(g, lut, coord, 3, true, wb);
  for (auto _ : state) {
    const cfloat val(1.0f, -1.0f);
    scatter(grid.data(), 0, 1, st, wb, &val);
    benchmark::DoNotOptimize(grid.data());
  }
}
BENCHMARK(BM_ScatterSimd3d)->ArgsProduct({{2, 4, 8}, {0, 1}});

void BM_GatherSimd3d(benchmark::State& state) {
  if (skip_without_isa(state)) return;
  const auto gather = state.range(1) != 0 ? &gather_slices<ConvBackend::kAvx2, 3, 1>
                                          : &gather_slices<ConvBackend::kSse, 3, 1>;
  const GridDesc g = make_grid(3, 64, 2.0);
  const auto kb = kernels::KaiserBessel::with_beatty_beta(
      static_cast<double>(state.range(0)), 2.0);
  const kernels::KernelLut lut(kb, 1024);
  const auto st = g.grid_strides();
  const cvecf grid = bench::random_values(g.grid_elems(), 5);
  WindowBuf wb;
  float coord[3] = {40.3f, 51.7f, 66.1f};
  compute_window(g, lut, coord, 3, true, wb);
  for (auto _ : state) {
    cfloat out;
    gather(grid.data(), 0, 1, st, wb, &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_GatherSimd3d)->ArgsProduct({{2, 4, 8}, {0, 1}});

void BM_CumulativeHistogram(benchmark::State& state) {
  const auto row = bench::default_row_scaled();
  const auto set = bench::make_set(datasets::TrajectoryType::kRandom, row);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cumulative_histogram(set.coords[0].data(), set.count(), set.m));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * set.count());
}
BENCHMARK(BM_CumulativeHistogram);

void BM_VariableLayout(benchmark::State& state) {
  const auto row = bench::default_row_scaled();
  const auto set = bench::make_set(datasets::TrajectoryType::kRadial, row);
  const std::array<index_t, 3> ext{set.m, set.m, set.m};
  const std::array<const float*, 3> coords{set.coords[0].data(), set.coords[1].data(),
                                           set.coords[2].data()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_variable_layout(3, ext, coords, set.count(), 8, 9));
  }
}
BENCHMARK(BM_VariableLayout);

void BM_SchedulerDrain(benchmark::State& state) {
  // Overhead of draining an empty-bodied task graph.
  PartitionLayout layout;
  layout.dim = 3;
  const int p = static_cast<int>(state.range(0));
  layout.num_parts = {p, p, p};
  for (int d = 0; d < 3; ++d) {
    for (int i = 0; i <= p; ++i) layout.bounds[static_cast<std::size_t>(d)].push_back(i * 16);
  }
  TaskGraph graph(layout);
  std::vector<index_t> weights(static_cast<std::size_t>(graph.size()), 1);
  std::vector<char> priv(static_cast<std::size_t>(graph.size()), 0);
  ThreadPool pool(bench_threads());
  for (auto _ : state) {
    run_task_graph(graph, weights, priv, pool, [](int, int, JobPhase) {});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * graph.size());
}
BENCHMARK(BM_SchedulerDrain)->Arg(4)->Arg(8);

// Off-path cost of the observability layer: a disabled Span/counter must be
// one relaxed load plus a branch (ISSUE acceptance: <2% on the macro bench).
void BM_SpanDisabled(benchmark::State& state) {
  obs::set_trace_enabled(false);
  for (auto _ : state) {
    obs::Span s("bench.span", "bench");
    benchmark::DoNotOptimize(&s);
  }
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabled(benchmark::State& state) {
  obs::set_trace_enabled(true);
  obs::reset_spans();
  for (auto _ : state) {
    obs::Span s("bench.span", "bench");
    benchmark::DoNotOptimize(&s);
  }
  obs::set_trace_enabled(false);
  obs::reset_spans();
}
BENCHMARK(BM_SpanEnabled);

void BM_CounterDisabled(benchmark::State& state) {
  obs::set_metrics_enabled(false);
  for (auto _ : state) {
    obs::count("bench.counter");
  }
}
BENCHMARK(BM_CounterDisabled);

void BM_CounterEnabled(benchmark::State& state) {
  obs::set_metrics_enabled(true);
  for (auto _ : state) {
    obs::count("bench.counter");
  }
  obs::set_metrics_enabled(false);
  obs::MetricsRegistry::instance().reset();
}
BENCHMARK(BM_CounterEnabled);

// The cached-handle pattern the scheduler uses: resolve once, then relaxed
// atomic adds only.
void BM_CounterCachedHandle(benchmark::State& state) {
  obs::set_metrics_enabled(true);
  auto& c = obs::MetricsRegistry::instance().counter("bench.counter_cached");
  for (auto _ : state) {
    c.add(1);
  }
  obs::set_metrics_enabled(false);
  obs::MetricsRegistry::instance().reset();
}
BENCHMARK(BM_CounterCachedHandle);

}  // namespace

BENCHMARK_MAIN();
