#include "core/nufft.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <new>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/timer.hpp"
#include "core/batch_conv.hpp"
#include "core/conv_dispatch.hpp"
#include "core/convolution_avx2.hpp"
#include "core/tolerance.hpp"
#include "kernels/rolloff.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace nufft {

namespace {

// Wrap an unwrapped grid coordinate into [0, m); preprocessing guarantees
// coordinates stay within one period of the grid.
inline index_t wrap_coord(index_t v, index_t m) {
  if (v < 0) return v + m;
  if (v >= m) return v - m;
  return v;
}

// Rejects a sample set that is degenerate (NaN/Inf or out-of-range
// coordinates would silently corrupt the histogram pass) or was generated
// for another grid. Every path that takes new samples runs it first.
void check_samples(const GridDesc& g, const datasets::SampleSet& samples) {
  datasets::validate_samples(samples);
  NUFFT_CHECK(samples.dim == g.dim);
  for (int d = 0; d < g.dim; ++d) {
    NUFFT_CHECK_MSG(samples.m == g.m[static_cast<std::size_t>(d)],
                    "sample set generated for a different grid size");
  }
}

}  // namespace

Nufft::Nufft(const GridDesc& g, const datasets::SampleSet& samples, const PlanConfig& cfg)
    : Nufft(g, samples, cfg, Preprocessed{}) {}

Nufft::Nufft(const GridDesc& g, const datasets::SampleSet& samples, const PlanConfig& cfg,
             Preprocessed restored)
    : g_(g), cfg_(cfg), nsamples_(samples.count()) {
  // Tolerance-driven plans resolve their kernel parameters first, so every
  // check and table below sees the resolved width/eval. Deterministic, so a
  // restored plan preprocessed under the same cfg resolves identically.
  apply_tolerance(cfg_, g.alpha);
  check_samples(g, samples);
  // A kernel footprint wider than the grid would make one sample revisit
  // grid cells and the rolloff correction meaningless; reject it for every
  // construction path — in particular the restored-plan constructor below,
  // which skips preprocess() and its identical check.
  const auto footprint = 2 * static_cast<index_t>(std::ceil(cfg_.kernel_radius)) + 1;
  for (int d = 0; d < g.dim; ++d) {
    NUFFT_CHECK_MSG(g.m[static_cast<std::size_t>(d)] >= footprint,
                    "grid dimension " << d << " (m = " << g.m[static_cast<std::size_t>(d)]
                                      << ") narrower than one kernel footprint (2*ceil(W)+1 = "
                                      << footprint
                                      << "); shrink kernel_radius or enlarge the grid");
  }

  // Resolve the vector path once. kAuto prefers AVX2 when the CPU has it;
  // an explicit kAvx2 request on an unsupported CPU is a caller error.
  if (!cfg_.use_simd) {
    conv_mode_ = ConvMode::kScalar;
  } else if (cfg_.isa == SimdIsa::kAvx2 ||
             (cfg_.isa == SimdIsa::kAuto && avx2_available())) {
    NUFFT_CHECK_MSG(avx2_available(), "AVX2 kernels requested on a CPU without AVX2+FMA");
    conv_mode_ = ConvMode::kAvx2;
  } else {
    conv_mode_ = ConvMode::kSse;
  }

  // Bind the convolution hot path once: the constexpr-W variant when the
  // resolved width is one of the registry's calibrated widths, the runtime-W
  // variant of the same (backend, dim, evaluator) otherwise. The two are
  // bit-identical by contract (tests/test_dispatch.cpp), so this is purely a
  // performance decision. Done before preprocessing so the registry's
  // process-lifetime allocations (first use) never land between the plan's
  // large buffers, where they would fragment the heap for later plans.
  ConvVariantKey key;
  key.backend = conv_mode_;
  key.dim = static_cast<std::uint8_t>(g_.dim);
  key.width2 = conv_width2(cfg_.kernel_radius);
  key.eval = cfg_.eval;
  conv_variant_ = ConvDispatch::instance().find(key);
  NUFFT_CHECK_MSG(conv_variant_ != nullptr, "no convolution variant for dim " << g_.dim);
  plan_stats_.conv_specialized = key.width2 != 0;
  plan_stats_.conv_variant_id = key.id();
  plan_stats_.conv_variant = conv_variant_->name;
  obs::count(std::string("nufft.conv.variant.") + plan_stats_.conv_variant);

  pool_ = std::make_unique<ThreadPool>(cfg_.threads);
  if (restored.graph != nullptr) {
    NUFFT_CHECK_MSG(static_cast<index_t>(restored.orig_index.size()) == nsamples_,
                    "restored plan does not match the sample set");
    pp_ = std::move(restored);
  } else {
    pp_ = preprocess(g_, samples, cfg_, *pool_);
  }

  // Rolloff precompensation with the ±1 chop baked in per dimension:
  // scale[d][i] = (−1)^(i − N/2) / apodization(i − N/2).
  const auto kernel = kernels::make_kernel(cfg_.kernel, cfg_.kernel_radius, g.alpha);
  for (int d = 0; d < g.dim; ++d) {
    const index_t n = g.n[static_cast<std::size_t>(d)];
    const index_t m = g.m[static_cast<std::size_t>(d)];
    fvec s = kernels::rolloff_1d(*kernel, n, m);
    auto& wrap = wrap_[static_cast<std::size_t>(d)];
    wrap.resize(static_cast<std::size_t>(n));
    // Inverse map for the fused scale pass: grid index → image index, −1 on
    // the zero-padding cells the image never touches.
    auto& inv = inv_wrap_[static_cast<std::size_t>(d)];
    inv.assign(static_cast<std::size_t>(m), static_cast<index_t>(-1));
    for (index_t i = 0; i < n; ++i) {
      const index_t centered = i - n / 2;
      if ((centered & 1) != 0) s[static_cast<std::size_t>(i)] = -s[static_cast<std::size_t>(i)];
      wrap[static_cast<std::size_t>(i)] = centered >= 0 ? centered : centered + m;
      inv[static_cast<std::size_t>(wrap[static_cast<std::size_t>(i)])] = i;
    }
    // Collapse the inverse map into maximal contiguous runs so the fused
    // scale pass can stream each stretch instead of looking up every cell.
    auto& runs = wrap_runs_[static_cast<std::size_t>(d)];
    for (index_t gidx = 0; gidx < m; ++gidx) {
      const index_t img = inv[static_cast<std::size_t>(gidx)];
      if (img < 0) continue;
      if (!runs.empty() && runs.back().g_end == gidx &&
          runs.back().i_begin + (gidx - runs.back().g_begin) == img) {
        runs.back().g_end = gidx + 1;
      } else {
        runs.push_back({gidx, gidx + 1, img});
      }
    }
    scale_[static_cast<std::size_t>(d)] = std::move(s);
  }
  fft_ = std::make_shared<const BatchFft>(g_, wrap_);

  // The LUT lives in the plan for the whole lifetime; Horner plans fit their
  // piecewise polynomials alongside it (the LUT stays available for
  // diagnostics and the radius bookkeeping).
  lut_ = std::make_shared<kernels::KernelLut>(*kernel, cfg_.lut_samples_per_unit);
  if (cfg_.eval == kernels::KernelEval::kHorner) {
    horner_ = std::make_shared<kernels::KernelHorner>(*kernel);
  }

  // The plan-owned workspace backing the convenience (non-const) API.
  ws_ = make_workspace();
}

Nufft::Nufft(const Nufft& src, const datasets::SampleSet& new_samples, const UpdateOptions& opts)
    : g_(src.g_),
      cfg_(src.cfg_),  // already tolerance-resolved — do NOT re-apply
      nsamples_(new_samples.count()) {
  check_samples(g_, new_samples);
  pool_ = std::make_unique<ThreadPool>(cfg_.threads);
  pp_ = clone_preprocessed(src.pp_);
  const UpdatePath path = update_preprocessed(pp_, g_, new_samples, cfg_, *pool_, opts);

  // Everything below depends only on (grid, cfg), both preserved verbatim —
  // share the immutable tables instead of rebuilding them.
  fft_ = src.fft_;
  scale_ = src.scale_;
  wrap_ = src.wrap_;
  inv_wrap_ = src.inv_wrap_;
  wrap_runs_ = src.wrap_runs_;
  lut_ = src.lut_;
  horner_ = src.horner_;
  conv_mode_ = src.conv_mode_;
  conv_variant_ = src.conv_variant_;
  plan_stats_ = src.plan_stats_;
  if (path != UpdatePath::kNoop) ++plan_stats_.generation;
  plan_stats_.warm_updated = path == UpdatePath::kWarm;

  ws_ = make_workspace();
}

UpdatePath Nufft::update_samples(const datasets::SampleSet& new_samples,
                                 const UpdateOptions& opts) {
  check_samples(g_, new_samples);
  const UpdatePath path = update_preprocessed(pp_, g_, new_samples, cfg_, *pool_, opts);
  if (path == UpdatePath::kNoop) return path;
  nsamples_ = new_samples.count();
  ++plan_stats_.generation;
  plan_stats_.warm_updated = path == UpdatePath::kWarm;
  return path;
}

Nufft::~Nufft() = default;

ConvRange Nufft::conv_range(const ConvTask& task, bool box_local) const {
  ConvRange r;
  r.g = &g_;
  r.ev = window_eval();
  for (int d = 0; d < g_.dim; ++d) {
    r.coords[static_cast<std::size_t>(d)] = pp_.coords[static_cast<std::size_t>(d)].data();
  }
  r.orig_index = pp_.orig_index.data();
  r.begin = task.begin;
  r.end = task.end;
  r.box_lo = box_local ? task.box_lo.data() : nullptr;
  return r;
}

Workspace Nufft::make_workspace(index_t capacity) const {
  Workspace ws;
  ws.capacity = std::clamp<index_t>(capacity, 1, kMaxBatch);
  // The grids are the irreducible working set — without them there is no
  // apply at all, so this allocation failure propagates.
  ws.grid.resize(static_cast<std::size_t>(ws.capacity) *
                 static_cast<std::size_t>(g_.grid_elems()));
  fit_private_bufs(ws);
  return ws;
}

void Nufft::check_workspace(const Workspace& ws) const {
  NUFFT_CHECK_MSG(ws.capacity >= 1 && ws.capacity <= kMaxBatch,
                  "workspace capacity " << ws.capacity << " is outside [1, " << kMaxBatch << "]");
  NUFFT_CHECK_MSG(ws.grid.size() >= static_cast<std::size_t>(ws.capacity) *
                                        static_cast<std::size_t>(g_.grid_elems()),
                  "workspace was not made by this plan: " << ws.grid.size() << " grid cells for "
                                                          << ws.capacity << " slabs of "
                                                          << g_.grid_elems());
}

void Nufft::fit_private_bufs(Workspace& ws) const {
  if (ws.privatization_downgraded) return;
  // The private buffers are an optimization: when they cannot be allocated
  // (capacity × box_elems per over-dense task can dwarf the grids on dense
  // trajectories), degrade to the TDG-serialized direct-scatter path instead
  // of failing. Already-sized buffers are kept, stale ones released.
  try {
    fault::inject_alloc("batch.private_alloc");
    ws.private_bufs.resize(pp_.tasks.size());
    for (std::size_t k = 0; k < pp_.tasks.size(); ++k) {
      if (pp_.privatized[k]) {
        ws.private_bufs[k].resize(static_cast<std::size_t>(ws.capacity) *
                                  static_cast<std::size_t>(pp_.tasks[k].box_elems(g_.dim)));
      } else if (!ws.private_bufs[k].empty()) {
        cvecf().swap(ws.private_bufs[k]);
      }
    }
  } catch (const std::bad_alloc&) {
    std::vector<cvecf>().swap(ws.private_bufs);
    ws.privatization_downgraded = true;
  }
}

std::size_t Nufft::workspace_bytes() const {
  std::size_t elems = static_cast<std::size_t>(g_.grid_elems());
  for (std::size_t k = 0; k < pp_.tasks.size(); ++k) {
    if (pp_.privatized[k]) elems += static_cast<std::size_t>(pp_.tasks[k].box_elems(g_.dim));
  }
  return elems * sizeof(cfloat);
}

void Nufft::clear_grid(cfloat* grid, std::size_t n, ThreadPool& pool) {
  pool.parallel_for(static_cast<index_t>(n), [&](index_t b, index_t e) {
    zero_complex(grid + b, static_cast<std::size_t>(e - b));
  });
}

void Nufft::clear_grid() {
  clear_grid(ws_.grid.data(), static_cast<std::size_t>(g_.grid_elems()), *pool_);
}

void Nufft::image_to_grid(const cfloat* image, cfloat* grid, ThreadPool& pool) const {
  // One sweep over the grid writing every cell exactly once (zero padding or
  // scaled image value), so the grid is touched once, not cleared and then
  // scattered into. The innermost dimension walks the precomputed wrap runs
  // (contiguous grid↔image stretches), so the hot loop is a straight
  // copy-scale with no per-element lookup or branch; the multiply grouping is
  // src · (f · scale), the same as grid_to_image's.
  const int dim = g_.dim;
  const auto st = g_.grid_strides();
  const index_t m0 = g_.m[0];
  const index_t m1 = dim >= 2 ? g_.m[1] : 1;
  const index_t m2 = dim >= 3 ? g_.m[2] : 1;
  const index_t n1 = dim >= 2 ? g_.n[1] : 1;
  const index_t n2 = dim >= 3 ? g_.n[2] : 1;
  const fvec& s0 = scale_[0];
  const fvec* s1 = dim >= 2 ? &scale_[1] : nullptr;
  const fvec* s2 = dim >= 3 ? &scale_[2] : nullptr;
  // Stream one row's runs: gaps zeroed, each run a lookup-free copy-scale.
  const auto stream_row = [&](cfloat* row, index_t m, const std::vector<WrapRun>& runs,
                              const cfloat* src, float f, const fvec& scale) {
    index_t gcur = 0;
    for (const WrapRun& r : runs) {
      zero_complex(row + gcur, static_cast<std::size_t>(r.g_begin - gcur));
      const index_t len = r.g_end - r.g_begin;
      cfloat* out = row + r.g_begin;
      const cfloat* in = src + r.i_begin;
      const float* sc = scale.data() + r.i_begin;
      for (index_t j = 0; j < len; ++j) out[j] = in[j] * (f * sc[j]);
      gcur = r.g_end;
    }
    zero_complex(row + gcur, static_cast<std::size_t>(m - gcur));
  };
  pool.parallel_for(m0, [&](index_t b, index_t e) {
    for (index_t g0 = b; g0 < e; ++g0) {
      cfloat* slab = grid + g0 * st[0];
      const index_t i0 = inv_wrap_[0][static_cast<std::size_t>(g0)];
      if (i0 < 0) {
        zero_complex(slab, static_cast<std::size_t>(st[0]));
        continue;
      }
      const float f0 = s0[static_cast<std::size_t>(i0)];
      if (dim == 1) {
        slab[0] = image[i0] * f0;
        continue;
      }
      if (dim == 2) {
        stream_row(slab, m1, wrap_runs_[1], image + i0 * n1, f0, *s1);
        continue;
      }
      for (index_t g1 = 0; g1 < m1; ++g1) {
        cfloat* row = slab + g1 * st[1];
        const index_t i1 = inv_wrap_[1][static_cast<std::size_t>(g1)];
        if (i1 < 0) {
          zero_complex(row, static_cast<std::size_t>(st[1]));
          continue;
        }
        const float f01 = f0 * (*s1)[static_cast<std::size_t>(i1)];
        stream_row(row, m2, wrap_runs_[2], image + (i0 * n1 + i1) * n2, f01, *s2);
      }
    }
  });
}

void Nufft::image_to_grid(const cfloat* image) { image_to_grid(image, ws_.grid.data(), *pool_); }

void Nufft::grid_to_image(const cfloat* grid, cfloat* image, ThreadPool& pool) const {
  const int dim = g_.dim;
  const auto st = g_.grid_strides();
  const index_t n0 = g_.n[0];
  const index_t n1 = dim >= 2 ? g_.n[1] : 1;
  const index_t n2 = dim >= 3 ? g_.n[2] : 1;
  const fvec& s0 = scale_[0];
  const fvec* s1 = dim >= 2 ? &scale_[1] : nullptr;
  const fvec* s2 = dim >= 3 ? &scale_[2] : nullptr;
  pool.parallel_for(n0, [&](index_t b, index_t e) {
    for (index_t i0 = b; i0 < e; ++i0) {
      const float f0 = s0[static_cast<std::size_t>(i0)];
      const index_t g0 = wrap_[0][static_cast<std::size_t>(i0)];
      for (index_t i1 = 0; i1 < n1; ++i1) {
        const float f01 = dim >= 2 ? f0 * (*s1)[static_cast<std::size_t>(i1)] : f0;
        const index_t g1 = dim >= 2 ? wrap_[1][static_cast<std::size_t>(i1)] : 0;
        cfloat* dst = image + (i0 * n1 + i1) * n2;
        const cfloat* src = grid + g0 * st[0] + (dim >= 2 ? g1 * st[1] : 0);
        if (dim >= 3) {
          for (index_t i2 = 0; i2 < n2; ++i2) {
            dst[i2] = src[wrap_[2][static_cast<std::size_t>(i2)]] *
                      (f01 * (*s2)[static_cast<std::size_t>(i2)]);
          }
        } else {
          dst[0] = src[0] * f01;
        }
      }
    }
  });
}

void Nufft::grid_to_image(cfloat* image) const {
  grid_to_image(ws_.grid.data(), image, *pool_);
}

void Nufft::run_interp(const cfloat* grid, cfloat* const* outs, index_t nb,
                       ThreadPool& pool) const {
  const auto st = g_.grid_strides();
  const auto slab_stride = static_cast<std::size_t>(g_.grid_elems());
  const ConvInterpFn fn = conv_variant_->interp;
  pool.parallel_for_tid(static_cast<int>(pp_.tasks.size()), 1, [&](int, index_t kb, index_t ke) {
    for (index_t k = kb; k < ke; ++k) {
      fn(conv_range(pp_.tasks[static_cast<std::size_t>(k)], false), grid, slab_stride, st, outs,
         nb);
    }
  });
}

void Nufft::interp(cfloat* raw) {
  cfloat* const outs[1] = {raw};
  run_interp(ws_.grid.data(), outs, 1, *pool_);
}

std::vector<TraceEvent> Nufft::run_spread(const cfloat* const* raws, index_t nb, Workspace& ws,
                                          ThreadPool& pool, OperatorStats* stats) const {
  const int dim = g_.dim;
  const auto st = g_.grid_strides();
  const ConvSpreadFn fn = conv_variant_->spread;
  cfloat* const grid = ws.grid.data();
  const auto slab_stride = static_cast<std::size_t>(g_.grid_elems());
  std::vector<cvecf>& private_bufs = ws.private_bufs;
  // A downgraded workspace has no private buffers: an all-zero mask routes
  // every task through the TDG-serialized direct-scatter path.
  const std::vector<char> none(ws.privatization_downgraded ? pp_.tasks.size() : 0, 0);
  const std::vector<char>& privatized = ws.privatization_downgraded ? none : pp_.privatized;

  auto body = [&](int task_id, int, JobPhase phase) {
    const ConvTask& task = pp_.tasks[static_cast<std::size_t>(task_id)];
    const auto box_elems = static_cast<std::size_t>(task.box_elems(dim));
    switch (phase) {
      case JobPhase::kConvolve:
        fn(conv_range(task, false), raws, nb, grid, slab_stride, st);
        break;
      case JobPhase::kPrivateConvolve: {
        cvecf& buf = private_bufs[static_cast<std::size_t>(task_id)];
        zero_complex(buf.data(), static_cast<std::size_t>(nb) * box_elems);
        fn(conv_range(task, true), raws, nb, buf.data(), box_elems, task.box_strides(dim));
        break;
      }
      case JobPhase::kReduce: {
        // Merge each slice's private box into its grid, wrapping mod M.
        const cvecf& buf = private_bufs[static_cast<std::size_t>(task_id)];
        std::array<index_t, 3> blen{1, 1, 1};
        for (int d = 0; d < dim; ++d) {
          blen[static_cast<std::size_t>(d)] = task.box_hi[static_cast<std::size_t>(d)] -
                                              task.box_lo[static_cast<std::size_t>(d)];
        }
        const index_t rows = dim >= 2 ? blen[0] * (dim >= 3 ? blen[1] : 1) : 1;
        const index_t inner = blen[static_cast<std::size_t>(dim - 1)];
        const index_t lo = task.box_lo[static_cast<std::size_t>(dim - 1)];
        const index_t m = g_.m[static_cast<std::size_t>(dim - 1)];
        for (index_t b = 0; b < nb; ++b) {
          cfloat* slab = grid + static_cast<std::size_t>(b) * slab_stride;
          const cfloat* box = buf.data() + static_cast<std::size_t>(b) * box_elems;
          for (index_t r = 0; r < rows; ++r) {
            const index_t b0 = dim >= 3 ? r / blen[1] : (dim == 2 ? r : 0);
            const index_t b1 = dim >= 3 ? r % blen[1] : 0;
            index_t base = 0;
            if (dim >= 2) base += wrap_coord(task.box_lo[0] + b0, g_.m[0]) * st[0];
            if (dim >= 3) base += wrap_coord(task.box_lo[1] + b1, g_.m[1]) * st[1];
            const cfloat* src = box + r * inner;
            for (index_t c = 0; c < inner; ++c) slab[base + wrap_coord(lo + c, m)] += src[c];
          }
        }
        break;
      }
    }
  };

  SchedulerStats sstats;
  if (cfg_.color_barrier_schedule) {
    sstats = run_task_graph_colored(*pp_.graph, pp_.weights, pool, body);
  } else {
    SchedulerConfig scfg;
    scfg.priority_queue = cfg_.priority_queue;
    scfg.record_trace = cfg_.record_trace;
    sstats = run_task_graph(*pp_.graph, pp_.weights, privatized, pool, body, scfg);
  }
  if (stats != nullptr) {
    // Accumulate, don't overwrite: an apply walks the scheduler once per
    // chunk and the driver resets the struct at apply entry.
    stats->add_scheduler_pass(sstats.tasks, sstats.privatized_tasks,
                              sstats.busy_ns_per_context);
  }
  return std::move(sstats.trace);
}

void Nufft::spread(const cfloat* raw) {
  fit_private_bufs(ws_);
  clear_grid();
  ws_.trace = run_spread(&raw, 1, ws_, *pool_, nullptr);
}

// Each phase timer runs inside its span, so the OperatorStats phases and the
// nufft.* spans measure the same interval (span bookkeeping excluded).
void Nufft::forward_chunk(const cfloat* const* images, cfloat* const* raws, index_t nb,
                          Workspace& ws, ThreadPool& pool) const {
  const auto slab = static_cast<std::size_t>(g_.grid_elems());
  {
    obs::Span s("nufft.scale", "core", nb);
    Timer t;
    for (index_t b = 0; b < nb; ++b) {
      image_to_grid(images[b], ws.grid.data() + static_cast<std::size_t>(b) * slab, pool);
    }
    ws.fwd_stats.scale_s += t.seconds();
  }
  {
    obs::Span s("nufft.fft", "core", nb);
    Timer t;
    grid_fft(ws.grid.data(), nb, fft::Direction::kForward, pool);
    ws.fwd_stats.fft_s += t.seconds();
  }
  {
    obs::Span s("nufft.conv", "core", nb);
    Timer t;
    run_interp(ws.grid.data(), raws, nb, pool);
    ws.fwd_stats.conv_s += t.seconds();
  }
}

void Nufft::adjoint_chunk(const cfloat* const* raws, cfloat* const* images, index_t nb,
                          Workspace& ws, ThreadPool& pool) const {
  const auto slab = static_cast<std::size_t>(g_.grid_elems());
  {
    obs::Span s("nufft.scale", "core", nb);
    Timer t;
    clear_grid(ws.grid.data(), static_cast<std::size_t>(nb) * slab, pool);
    ws.adj_stats.scale_s += t.seconds();
  }
  {
    obs::Span s("nufft.conv", "core", nb);
    Timer t;
    const std::vector<TraceEvent> trace = run_spread(raws, nb, ws, pool, &ws.adj_stats);
    ws.trace.insert(ws.trace.end(), trace.begin(), trace.end());
    ws.adj_stats.conv_s += t.seconds();
  }
  {
    obs::Span s("nufft.fft", "core", nb);
    Timer t;
    grid_fft(ws.grid.data(), nb, fft::Direction::kInverse, pool);
    ws.adj_stats.fft_s += t.seconds();
  }
  {
    obs::Span s("nufft.scale", "core", nb);
    Timer t;
    for (index_t b = 0; b < nb; ++b) {
      grid_to_image(ws.grid.data() + static_cast<std::size_t>(b) * slab, images[b], pool);
    }
    ws.adj_stats.scale_s += t.seconds();
  }
}

void Nufft::forward(const cfloat* const* images, cfloat* const* raws, index_t nb, Workspace& ws,
                    ThreadPool& pool) const {
  NUFFT_CHECK(nb >= 1);
  check_workspace(ws);
  ws.fwd_stats = OperatorStats{};
  obs::Span apply("nufft.forward", "core", nb);
  Timer total;
  for (index_t off = 0; off < nb; off += ws.capacity) {
    forward_chunk(images + off, raws + off, std::min(ws.capacity, nb - off), ws, pool);
  }
  ws.fwd_stats.total_s = total.seconds();
  ws.fwd_stats.privatization_downgraded = ws.privatization_downgraded;
}

void Nufft::adjoint(const cfloat* const* raws, cfloat* const* images, index_t nb, Workspace& ws,
                    ThreadPool& pool) const {
  NUFFT_CHECK(nb >= 1);
  check_workspace(ws);
  fit_private_bufs(ws);
  ws.adj_stats = OperatorStats{};
  ws.trace.clear();
  obs::Span apply("nufft.adjoint", "core", nb);
  Timer total;
  for (index_t off = 0; off < nb; off += ws.capacity) {
    adjoint_chunk(raws + off, images + off, std::min(ws.capacity, nb - off), ws, pool);
  }
  ws.adj_stats.total_s = total.seconds();
  ws.adj_stats.privatization_downgraded = ws.privatization_downgraded;
}

void Nufft::forward(const cfloat* image, cfloat* raw, Workspace& ws, ThreadPool& pool) const {
  forward(&image, &raw, 1, ws, pool);
}

void Nufft::adjoint(const cfloat* raw, cfloat* image, Workspace& ws, ThreadPool& pool) const {
  adjoint(&raw, &image, 1, ws, pool);
}

void Nufft::forward(const cfloat* image, cfloat* raw) { forward(image, raw, ws_, *pool_); }

void Nufft::adjoint(const cfloat* raw, cfloat* image) { adjoint(raw, image, ws_, *pool_); }

}  // namespace nufft
