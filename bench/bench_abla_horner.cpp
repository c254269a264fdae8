// Ablation: Part 1 weight computation via the piecewise-polynomial Horner
// evaluator versus the linear-interpolation LUT, for the ES kernel the
// tolerance-driven planner pairs with Horner. The window rows time the
// sample loop's Part 1, detail::window_block (core/window_span.hpp: four
// samples per call, one per SSE lane), over every sample: "LUT rt-W" and
// "Horner rt-W" with W read at run time (the runtime-W variants), "Horner
// W2" with W a compile-time constant (the constexpr-W variants). The second
// half times the convolution sample loop of a plan's constexpr-W variant
// against its runtime-W sibling on the LUT and Horner configurations;
// results go to BENCH_abla_horner.json (window rows "w4".."w8", pipeline
// rows "<kernel>.d<dim>").
//
// This TU is deliberately compiled at the baseline ISA (see
// core/conv_variants.hpp rule 2): including the variant templates from an
// -mavx2 TU would let the compiler contract the weight arithmetic into FMA
// and measure a loop the library never runs.
#include <algorithm>
#include <array>
#include <cstdio>
#include <string>

#include "common.hpp"
#include "core/conv_variants.hpp"
#include "core/convolution.hpp"
#include "kernels/es_kernel.hpp"
#include "kernels/horner.hpp"
#include "kernels/lut.hpp"

using namespace nufft;
using namespace nufft::bench;

namespace {

volatile float g_sink = 0.0f;

/// Time one Part-1 sweep over every sample, four at a time as the sample
/// loop runs it.
template <int W2, bool HORNER>
double time_block(const GridDesc& g, const WindowEval& ev, const datasets::SampleSet& set) {
  const std::array<const float*, 3> coords{set.coords[0].data(), set.coords[1].data(),
                                           set.coords[2].data()};
  return time_call([&] {
    WindowBuf wbs[detail::kBlockLanes];
    float acc = 0.0f;
    for (index_t p = 0; p < set.count(); p += detail::kBlockLanes) {
      const auto lanes =
          static_cast<int>(std::min<index_t>(detail::kBlockLanes, set.count() - p));
      detail::window_block<3, W2, HORNER>(g, ev, coords, p, lanes, false, wbs);
      acc += wbs[0].win[0][0];
    }
    g_sink = g_sink + acc;
  });
}

double time_spec_for(int w2, const GridDesc& g, const WindowEval& ev,
                     const datasets::SampleSet& set) {
  switch (w2) {
    case 4: return time_block<4, true>(g, ev, set);
    case 5: return time_block<5, true>(g, ev, set);
    case 6: return time_block<6, true>(g, ev, set);
    case 7: return time_block<7, true>(g, ev, set);
    default: return time_block<8, true>(g, ev, set);
  }
}

}  // namespace

int main() {
  print_header("Ablation — Horner vs LUT window evaluation (ES kernel, Part 1)");
  const auto row = default_row_scaled();
  const auto set = make_set(datasets::TrajectoryType::kRandom, row);
  const GridDesc g = make_grid(3, row.n, 2.0);
  BenchReport report("abla_horner");

  std::printf("%-5s %6s %12s %12s %12s %10s %10s\n", "W", "degree", "LUT rt-W", "Horner rt-W",
              "Horner W2", "spec gain", "vs LUT");
  for (int w2 = ConvDispatch::kMinWidth2; w2 <= ConvDispatch::kMaxWidth2; ++w2) {
    const double W = 0.5 * w2;
    const kernels::EsKernel es(W, 2.0);
    const kernels::KernelLut lut(es, 1024);
    const kernels::KernelHorner horner(es);
    WindowEval lut_ev;
    lut_ev.lut = &lut;
    WindowEval horner_ev;
    horner_ev.horner = &horner;

    const double t_lut = time_block<0, false>(g, lut_ev, set);
    const double t_horner = time_block<0, true>(g, horner_ev, set);
    const double t_spec = time_spec_for(w2, g, horner_ev, set);
    std::printf("%-5.1f %6d %12.4f %12.4f %12.4f %9.2fx %9.2fx\n", W, horner.degree(), t_lut,
                t_horner, t_spec, t_horner / t_spec, t_lut / t_spec);
    report.add("w" + std::to_string(w2),
               {{"W", W},
                {"degree", static_cast<double>(horner.degree())},
                {"lut_generic_s", t_lut},
                {"horner_generic_s", t_horner},
                {"horner_spec_s", t_spec},
                {"spec_gain", t_horner / t_spec},
                {"lut_vs_spec_gain", t_lut / t_spec}});
  }

  // The convolution sample loop: the plan key's constexpr-W variant versus
  // its runtime-W sibling, each driven over every task of the same plan
  // (interp = forward Part 1+2, spread = adjoint Part 1+2, privatized boxes
  // left out), on the two calibrated evaluator pairings (KB+LUT, ES+Horner),
  // dims 2 and 3. The *_generic_s fields hold the runtime-W variant's times.
  std::printf("\n%-12s %12s %12s %8s %12s %12s %8s\n", "shape", "fwd spec", "fwd rt-W", "gain",
              "adj spec", "adj rt-W", "gain");
  for (const int dim : {2, 3}) {
    const auto dset = make_set(datasets::TrajectoryType::kRandom, row, dim);
    const GridDesc dg = make_grid(dim, row.n, 2.0);
    const auto st = dg.grid_strides();
    const cvecf raw = random_values(dset.count(), 2);
    const cvecf grid_in = random_values(dg.grid_elems(), 1);
    cvecf out_raw(raw.size());
    cvecf grid_out(grid_in.size());
    for (const bool use_horner : {false, true}) {
      PlanConfig cfg = optimized_config(bench_threads());
      cfg.isa = SimdIsa::kAuto;
      if (use_horner) {
        cfg.kernel = kernels::KernelType::kEs;
        cfg.eval = kernels::KernelEval::kHorner;
      }
      const Nufft plan(dg, dset, cfg);
      const ConvVariant& spec = plan.conv_variant();
      ConvVariantKey rt_key = spec.key;
      rt_key.width2 = 0;
      const ConvVariant& runtime = *ConvDispatch::instance().find(rt_key);
      const auto& tasks = plan.plan().tasks;
      const auto time_interp = [&](const ConvVariant& v) {
        cfloat* const outs[1] = {out_raw.data()};
        return time_call([&] {
          for (const ConvTask& t : tasks) {
            v.interp(plan.conv_range(t, false), grid_in.data(), grid_in.size(), st, outs, 1);
          }
        });
      };
      const auto time_spread = [&](const ConvVariant& v) {
        const cfloat* const ins[1] = {raw.data()};
        return time_call([&] {
          for (const ConvTask& t : tasks) {
            v.spread(plan.conv_range(t, false), ins, 1, grid_out.data(), grid_out.size(), st);
          }
        });
      };
      const double fwd_spec = time_interp(spec);
      const double fwd_gen = time_interp(runtime);
      const double adj_spec = time_spread(spec);
      const double adj_gen = time_spread(runtime);
      const std::string label =
          std::string(use_horner ? "horner" : "lut") + ".d" + std::to_string(dim);
      std::printf("%-12s %12.4f %12.4f %7.2fx %12.4f %12.4f %7.2fx\n", label.c_str(), fwd_spec,
                  fwd_gen, fwd_gen / fwd_spec, adj_spec, adj_gen, adj_gen / adj_spec);
      report.add(label, {{"dim", static_cast<double>(dim)},
                         {"horner", use_horner ? 1.0 : 0.0},
                         {"specialized", plan.plan_stats().conv_specialized ? 1.0 : 0.0},
                         {"forward_spec_s", fwd_spec},
                         {"forward_generic_s", fwd_gen},
                         {"forward_gain", fwd_gen / fwd_spec},
                         {"adjoint_spec_s", adj_spec},
                         {"adjoint_generic_s", adj_gen},
                         {"adjoint_gain", adj_gen / adj_spec}});
    }
  }
  report.write();
  return 0;
}
