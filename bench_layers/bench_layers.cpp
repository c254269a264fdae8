// bench_layers: the repository's benchmark. One process runs one workload.
//
//   bench_layers --workload W --seed S --seconds T --trace 0|1
//                [--out FILE] [--chrome-trace FILE]
//
// Untraced (--trace 0): kSetups cold set-ups (setup_s is their median), a
// warm-up of at least three ops and one second (peak_rss_mb is read here),
// then a closed loop of ops for T seconds; reports the end-to-end metrics.
// Traced (--trace 1): the same set-up and warm-up, then for T seconds
// iterations of whole ops plus the per-layer component pass (probe.hpp);
// reports the per-layer metrics. Both check the outputs. Every time is
// reported at reference speed (harness.hpp, Reference); the report written
// by --out also holds the raw end-to-end times.
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {value, unit}}}
// --out writes a self-describing report (seed, duration, pool width, nproc,
// source revision, sample counts, every check); --chrome-trace writes the
// bench spans of a traced run as Chrome trace_event JSON.
#include <cstdio>
#include <exception>
#include <thread>

#include "harness.hpp"
#include "obs/export.hpp"
#include "probe.hpp"
#include "workloads.hpp"

#ifndef BENCH_LAYERS_GIT_REV
#define BENCH_LAYERS_GIT_REV "unknown"
#endif

namespace {

using namespace bench_layers;

// Set-ups are milliseconds long, so their median needs many of them on a
// noisy host; odd, so the median is one measured value.
constexpr int kSetups = 11;

int run(const Args& args, const std::string& cpus) {
  auto wl = make_workload(args.workload, args.seed);
  if (wl == nullptr) {
    std::fprintf(stderr, "bench_layers: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Report r;
  r.context("bench", "bench_layers");
  r.context("workload", args.workload);
  r.context("seed", static_cast<double>(args.seed));
  r.context("trace", args.trace ? 1.0 : 0.0);
  r.context("duration_s", args.seconds);
  r.context("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  r.context("pool_threads", kPoolThreads);
  r.context("cpus", cpus);
  r.context("git_rev", BENCH_LAYERS_GIT_REV);
  wl->describe(r);

  Reference ref;
  std::vector<double> setups;      // at reference speed
  std::vector<double> raw_setups;  // as measured
  double before = ref.measure_ms();
  for (int i = 0; i < kSetups; ++i) {
    const double s = wl->setup();
    const double after = ref.measure_ms();
    raw_setups.push_back(s);
    setups.push_back(s * speed_factor(before, after));
    before = after;
  }
  wl->prepare();
  wl->warmup();
  const double rss_mb = peak_rss_mb();

  LayerLog log;
  const LoopStats st =
      args.trace ? wl->run_traced(args.seconds, ref, log) : wl->run(args.seconds, ref);
  r.context("measured_s", st.wall_s);
  r.context("op_samples", static_cast<double>(st.op_ms.size()));
  // The same run as measured, before scaling to reference speed.
  r.context("raw_setup_s", median(raw_setups));
  r.context("raw_op_ms_p50", quantile(st.raw_op_ms, 0.50));
  r.context("raw_op_ms_p90", quantile(st.raw_op_ms, 0.90));
  r.context("raw_ops_per_s", static_cast<double>(st.ops) / st.wall_s);
  r.context("ref_nominal_ms", kRefNominalMs);
  r.context("ref_ms_p50", median(ref.samples()));
  r.context("ref_samples", static_cast<double>(ref.samples().size()));

  const double err = wl->rel_err();
  r.check("rel_err", err <= wl->rel_err_limit(), err, wl->rel_err_limit());
  wl->check(r);
  r.ops(st.attempted, st.failed);

  if (!args.trace) {
    r.metric("setup_s", median(setups), "s", setups.size());
    r.metric("op_ms_p50", quantile(st.op_ms, 0.50), "ms", st.op_ms.size());
    r.metric("op_ms_p90", quantile(st.op_ms, 0.90), "ms", st.op_ms.size());
    r.metric("ops_per_s", static_cast<double>(st.ops) / st.speed_wall_s, "1/s", st.ops);
    r.metric("peak_rss_mb", rss_mb, "MiB", 1);
  } else {
    log.add("accuracy.rel_err", err);
    const double dropped = static_cast<double>(nufft::obs::dropped_spans());
    r.check("trace_dropped_spans", dropped == 0.0, dropped, 0.0);
    report_layers(log, wl->op_parts(), wl->probe_samples(), wl->probe_grid_cells(), r);
    if (!args.chrome_trace.empty() &&
        !nufft::obs::write_text_file(args.chrome_trace, nufft::obs::chrome_trace_json(log.events()))) {
      std::fprintf(stderr, "bench_layers: cannot write %s\n", args.chrome_trace.c_str());
      return 1;
    }
  }

  if (!args.out.empty() && !nufft::obs::write_text_file(args.out, r.detail_json())) {
    std::fprintf(stderr, "bench_layers: cannot write %s\n", args.out.c_str());
    return 1;
  }
  std::fprintf(stderr, "%s", r.check_summary().c_str());
  std::printf("%s\n", r.result_line().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cpus = pin_to_cpus();  // before any thread starts
  try {
    return run(parse_args(argc, argv), cpus);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_layers: %s\n", e.what());
    return 1;
  }
}
