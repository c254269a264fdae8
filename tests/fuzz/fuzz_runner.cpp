#include "fuzz/fuzz_runner.hpp"

#include <cmath>
#include <cstddef>
#include <cstring>
#include <memory>
#include <sstream>

#include "baselines/adjoint_atomic.hpp"
#include "baselines/adjoint_privatized.hpp"
#include "baselines/nudft.hpp"
#include "baselines/reference_nufft.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/convolution_avx2.hpp"
#include "core/nufft.hpp"
#include "core/toeplitz.hpp"
#include "exec/batch_nufft.hpp"
#include "kernels/es_kernel.hpp"

namespace nufft::fuzz {

namespace {

// ---- comparison helpers (double-precision norms, denominator floor) ----

double norm2(const cfloat* a, index_t n) {
  double s = 0.0;
  for (index_t i = 0; i < n; ++i) {
    const auto& v = a[static_cast<std::size_t>(i)];
    s += static_cast<double>(v.real()) * v.real() + static_cast<double>(v.imag()) * v.imag();
  }
  return std::sqrt(s);
}

double diff_norm(const cfloat* a, const cfloat* b, index_t n) {
  double s = 0.0;
  for (index_t i = 0; i < n; ++i) {
    const double dr = static_cast<double>(a[static_cast<std::size_t>(i)].real()) -
                      b[static_cast<std::size_t>(i)].real();
    const double di = static_cast<double>(a[static_cast<std::size_t>(i)].imag()) -
                      b[static_cast<std::size_t>(i)].imag();
    s += dr * dr + di * di;
  }
  return std::sqrt(s);
}

double diff_norm(const cfloat* a, const cdouble* b, index_t n) {
  double s = 0.0;
  for (index_t i = 0; i < n; ++i) {
    const double dr = static_cast<double>(a[static_cast<std::size_t>(i)].real()) -
                      b[static_cast<std::size_t>(i)].real();
    const double di = static_cast<double>(a[static_cast<std::size_t>(i)].imag()) -
                      b[static_cast<std::size_t>(i)].imag();
    s += dr * dr + di * di;
  }
  return std::sqrt(s);
}

double norm2(const cdouble* a, index_t n) {
  double s = 0.0;
  for (index_t i = 0; i < n; ++i) {
    s += std::norm(a[static_cast<std::size_t>(i)]);
  }
  return std::sqrt(s);
}

// Relative error with a floored denominator: near-zero references fall back
// to an absolute comparison so a single unlucky sample can't inflate the
// metric into flakiness.
template <class Ref>
double rel_err(const cfloat* got, const Ref* ref, index_t n) {
  if (n == 0) return 0.0;
  return diff_norm(got, ref, n) / std::max(norm2(ref, n), 1e-2);
}

class Report {
 public:
  explicit Report(const FuzzConfig& c) : cfg_(c) {}

  std::ostringstream& fail() {
    msgs_.emplace_back();
    return msgs_.back();
  }

  void check_rel(const char* what, double err, double tol) {
    if (!(err <= tol)) {  // catches NaN too
      fail() << what << ": rel err " << err << " > tol " << tol;
    }
  }

  void check_bitwise(const std::string& what, const cfloat* got, const cfloat* want, index_t n) {
    if (n > 0 && std::memcmp(got, want, static_cast<std::size_t>(n) * sizeof(cfloat)) != 0) {
      fail() << what << ": not bitwise equal (rel err " << rel_err(got, want, n) << ")";
    }
  }

  std::vector<std::string> finish() {
    std::vector<std::string> out;
    out.reserve(msgs_.size());
    for (auto& m : msgs_) {
      out.push_back("[" + cfg_.describe() + "] " + m.str() +
                    "  (reproduce: NUFFT_FUZZ_SEED=" + std::to_string(cfg_.seed) +
                    " NUFFT_FUZZ_CONFIGS=1)");
    }
    return out;
  }

  bool ok() const { return msgs_.empty(); }

 private:
  const FuzzConfig& cfg_;
  std::vector<std::ostringstream> msgs_;
};

// ---- deterministic sample-set generation ----

float clamp_coord(double v, index_t m) {
  // Wrap into [0, m) in double, then guard the float cast: a value a hair
  // below m can round up to exactly m, which validate_samples rejects.
  const double md = static_cast<double>(m);
  double w = std::fmod(v, md);
  if (w < 0.0) w += md;
  float f = static_cast<float>(w);
  if (f >= static_cast<float>(m)) f = std::nextafterf(static_cast<float>(m), 0.0f);
  if (f < 0.0f) f = 0.0f;
  return f;
}

datasets::SampleSet make_samples(const FuzzConfig& c) {
  datasets::SampleSet set;
  set.dim = c.dim;
  set.m = c.m;
  set.k = c.count;
  set.s = c.count > 0 ? 1 : 0;
  Rng rng(c.seed ^ 0xC2B2AE3D27D4EB4Full);
  const float mf = static_cast<float>(c.m);
  const float boundary[5] = {0.0f, std::nextafterf(mf, 0.0f), mf - 0.5f, 0.5f,
                             std::nextafterf(mf / 2.0f, mf)};
  float center[3] = {0, 0, 0};
  for (int d = 0; d < c.dim; ++d) {
    center[d] = static_cast<float>(rng.uniform(0.0, static_cast<double>(c.m)));
  }
  for (int d = 0; d < c.dim; ++d) {
    set.coords[static_cast<std::size_t>(d)].resize(static_cast<std::size_t>(c.count));
  }
  for (index_t i = 0; i < c.count; ++i) {
    for (int d = 0; d < c.dim; ++d) {
      float v;
      switch (c.style) {
        case CoordStyle::kInteger:
          v = static_cast<float>(rng.below(static_cast<std::uint64_t>(c.m)));
          break;
        case CoordStyle::kHalfInteger:
          v = static_cast<float>(rng.below(static_cast<std::uint64_t>(c.m))) + 0.5f;
          if (v >= mf) v = std::nextafterf(mf, 0.0f);
          break;
        case CoordStyle::kBoundary:
          v = boundary[rng.below(5)];
          break;
        case CoordStyle::kClustered:
          v = clamp_coord(center[d] + rng.normal(0.0, static_cast<double>(c.m) / 12.0), c.m);
          break;
        default:
          v = clamp_coord(rng.uniform(0.0, static_cast<double>(c.m)), c.m);
          break;
      }
      set.coords[static_cast<std::size_t>(d)][static_cast<std::size_t>(i)] = v;
    }
  }
  return set;
}

cvecf random_complex(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  cvecf v(static_cast<std::size_t>(n));
  for (auto& x : v) {
    x = cfloat(static_cast<float>(rng.uniform(-1.0, 1.0)),
               static_cast<float>(rng.uniform(-1.0, 1.0)));
  }
  return v;
}

GridDesc fuzz_grid(const FuzzConfig& c) {
  GridDesc g;
  g.dim = c.dim;
  g.alpha = c.alpha;
  for (int d = 0; d < c.dim; ++d) {
    g.n[static_cast<std::size_t>(d)] = c.n;
    g.m[static_cast<std::size_t>(d)] = c.m;
  }
  return g;
}

PlanConfig base_config(const FuzzConfig& c) {
  PlanConfig cfg;
  cfg.kernel_radius = c.kernel_radius;
  cfg.kernel = c.kernel;
  cfg.lut_samples_per_unit = c.lut_samples_per_unit;
  cfg.eval = c.eval;
  cfg.tolerance = c.tolerance;
  cfg.threads = c.threads;
  cfg.priority_queue = c.priority_queue;
  cfg.selective_privatization = c.selective_privatization;
  cfg.color_barrier_schedule = c.color_barrier_schedule;
  cfg.variable_partitions = c.variable_partitions;
  cfg.reorder = c.reorder;
  cfg.privatization_factor = c.privatization_factor;
  return cfg;
}

// Double-precision brute-force periodic spread: the oracle for the raw
// kernel-level baselines on grids narrower than the footprint, where every
// window wraps the grid several times.
std::vector<cdouble> brute_force_spread(const GridDesc& g, const kernels::Kernel1d& kernel,
                                        const datasets::SampleSet& set, const cfloat* raw) {
  const double W = kernel.radius();
  const auto st = g.grid_strides();
  std::vector<cdouble> grid(static_cast<std::size_t>(g.grid_elems()), cdouble(0, 0));
  for (index_t p = 0; p < set.count(); ++p) {
    // Mirror compute_window's float index arithmetic exactly (float ceil
    // and trim), but take kernel values in double.
    index_t lo[3] = {0, 0, 0}, hi[3] = {0, 0, 0};
    float k[3] = {0, 0, 0};
    for (int d = 0; d < g.dim; ++d) {
      k[d] = set.coords[static_cast<std::size_t>(d)][static_cast<std::size_t>(p)];
      auto x1 = static_cast<index_t>(std::ceil(k[d] - static_cast<float>(W)));
      auto x2 = static_cast<index_t>(std::floor(k[d] + static_cast<float>(W)));
      if (std::fabs(static_cast<float>(x1) - k[d]) > W) ++x1;
      if (std::fabs(static_cast<float>(x2) - k[d]) > W) --x2;
      lo[d] = x1;
      hi[d] = x2;
    }
    const cdouble val(raw[static_cast<std::size_t>(p)].real(),
                      raw[static_cast<std::size_t>(p)].imag());
    const auto wrapm = [&](index_t x, index_t m) { return ((x % m) + m) % m; };
    for (index_t x = lo[0]; x <= hi[0]; ++x) {
      const double wx = kernel.value(static_cast<double>(static_cast<float>(x) - k[0]));
      if (g.dim == 1) {
        grid[static_cast<std::size_t>(wrapm(x, g.m[0]))] += val * wx;
        continue;
      }
      for (index_t y = lo[1]; y <= hi[1]; ++y) {
        const double wxy = wx * kernel.value(static_cast<double>(static_cast<float>(y) - k[1]));
        if (g.dim == 2) {
          grid[static_cast<std::size_t>(wrapm(x, g.m[0]) * st[0] + wrapm(y, g.m[1]))] +=
              val * wxy;
          continue;
        }
        for (index_t z = lo[2]; z <= hi[2]; ++z) {
          const double w =
              wxy * kernel.value(static_cast<double>(static_cast<float>(z) - k[2]));
          grid[static_cast<std::size_t>(wrapm(x, g.m[0]) * st[0] + wrapm(y, g.m[1]) * st[1] +
                                        wrapm(z, g.m[2]))] += val * w;
        }
      }
    }
  }
  return grid;
}

// ---- the rejection path: footprint wider than the grid ----

void run_tiny_grid(const FuzzConfig& c, Report& rep) {
  const GridDesc g = fuzz_grid(c);
  const auto set = make_samples(c);

  // Plan construction must reject the geometry with a caller error.
  try {
    Nufft plan(g, set, base_config(c));
    rep.fail() << "Nufft accepted a grid narrower than the kernel footprint";
  } catch (const Error& e) {
    if (e.code() != ErrorCode::kInvalidInput) {
      rep.fail() << "Nufft rejected a tiny grid with code "
                 << static_cast<int>(e.code()) << ", want kInvalidInput";
    }
  }
  try {
    baselines::ReferenceNufft ref(g, set, c.kernel_radius, c.threads);
    rep.fail() << "ReferenceNufft accepted a grid narrower than the kernel footprint";
  } catch (const Error& e) {
    if (e.code() != ErrorCode::kInvalidInput) {
      rep.fail() << "ReferenceNufft rejected a tiny grid with code "
                 << static_cast<int>(e.code()) << ", want kInvalidInput";
    }
  }

  // The raw kernel-level baselines accept any grid and must produce the
  // fully-wrapped periodic convolution (the compute_window wrap regression).
  const auto kernel = kernels::make_kernel(c.kernel, c.kernel_radius, c.alpha);
  const kernels::KernelLut lut(*kernel, c.lut_samples_per_unit);
  const cvecf raw = random_complex(set.count(), c.seed ^ 0x94D049BB133111EBull);
  const auto want = brute_force_spread(g, *kernel, set, raw.data());

  ThreadPool pool(c.threads);
  cvecf atomic_grid(static_cast<std::size_t>(g.grid_elems()), cfloat(0, 0));
  baselines::spread_atomic(g, lut, set, raw.data(), atomic_grid.data(), pool);
  cvecf priv_grid(static_cast<std::size_t>(g.grid_elems()), cfloat(0, 0));
  baselines::spread_privatized(g, lut, set, raw.data(), priv_grid.data(), pool);

  // LUT interpolation plus multi-wrap accumulation bounds the error.
  const double tol = c.count > 0 ? 5e-3 : 0.0;
  rep.check_rel("spread_atomic vs brute-force periodic spread (tiny grid)",
                rel_err(atomic_grid.data(), want.data(), g.grid_elems()), tol);
  rep.check_rel("spread_privatized vs brute-force periodic spread (tiny grid)",
                rel_err(priv_grid.data(), want.data(), g.grid_elems()), tol);
}

// ---- the full differential battery ----

void check_stats_finite(const char* what, const OperatorStats& st, Report& rep) {
  if (std::isnan(st.load_imbalance())) {
    rep.fail() << what << ": load_imbalance is NaN";
  }
}

void run_full(const FuzzConfig& c, Report& rep) {
  const GridDesc g = fuzz_grid(c);
  const auto set = make_samples(c);
  const double tol = c.nudft_tolerance();

  const cvecf img_in = random_complex(g.image_elems(), c.seed ^ 0xBF58476D1CE4E5B9ull);
  const cvecf raw_in = random_complex(set.count(), c.seed ^ 0x94D049BB133111EBull);

  // Exact oracle, double precision throughout.
  ThreadPool pool(c.threads);
  std::vector<cdouble> fwd_ref(static_cast<std::size_t>(set.count()));
  std::vector<cdouble> adj_ref(static_cast<std::size_t>(g.image_elems()));
  baselines::nudft_forward(g, set, img_in.data(), fwd_ref.data(), pool);
  baselines::nudft_adjoint(g, set, raw_in.data(), adj_ref.data(), pool);

  struct Variant {
    const char* name;
    bool use_simd;
    SimdIsa isa;
  };
  std::vector<Variant> variants = {{"scalar", false, SimdIsa::kSse},
                                   {"sse", true, SimdIsa::kSse}};
  if (avx2_available()) variants.push_back({"avx2", true, SimdIsa::kAvx2});

  std::vector<std::unique_ptr<Nufft>> plans;
  std::vector<cvecf> fwd_got, adj_got;
  for (const auto& v : variants) {
    PlanConfig cfg = base_config(c);
    cfg.use_simd = v.use_simd;
    cfg.isa = v.isa;
    auto plan = std::make_unique<Nufft>(g, set, cfg);

    cvecf raw_out(static_cast<std::size_t>(set.count()));
    plan->forward(img_in.data(), raw_out.data());
    check_stats_finite(v.name, plan->last_forward_stats(), rep);

    cvecf img_out(static_cast<std::size_t>(g.image_elems()));
    plan->adjoint(raw_in.data(), img_out.data());
    check_stats_finite(v.name, plan->last_adjoint_stats(), rep);

    const std::string fname = std::string(v.name) + " forward vs NUDFT";
    const std::string aname = std::string(v.name) + " adjoint vs NUDFT";
    rep.check_rel(fname.c_str(), rel_err(raw_out.data(), fwd_ref.data(), set.count()), tol);
    rep.check_rel(aname.c_str(), rel_err(img_out.data(), adj_ref.data(), g.image_elems()), tol);

    if (!plans.empty()) {
      // Against the scalar path: identical windows and schedule, only
      // floating-point association differs.
      const std::string fx = std::string(v.name) + " forward vs scalar path";
      const std::string ax = std::string(v.name) + " adjoint vs scalar path";
      rep.check_rel(fx.c_str(), rel_err(raw_out.data(), fwd_got[0].data(), set.count()), 5e-4);
      rep.check_rel(ax.c_str(), rel_err(img_out.data(), adj_got[0].data(), g.image_elems()),
                    5e-4);
    }
    plans.push_back(std::move(plan));
    fwd_got.push_back(std::move(raw_out));
    adj_got.push_back(std::move(img_out));
  }
  Nufft& scalar_plan = *plans[0];

  // Zero-sample semantics: the adjoint of an empty raw vector is exactly
  // the zero image on every path.
  if (c.count == 0) {
    for (std::size_t v = 0; v < variants.size(); ++v) {
      for (const cfloat x : adj_got[v]) {
        if (x != cfloat(0.0f, 0.0f)) {
          rep.fail() << variants[v].name << " adjoint of an empty sample set is not exactly 0";
          break;
        }
      }
    }
  }

  // Batched applies: on every backend, each slice must equal a single apply
  // on the same plan, bitwise (the batch-width contract).
  if (c.batch > 1) {
    std::vector<cvecf> imgs, raws_in;
    std::vector<const cfloat*> img_ptrs, rawin_ptrs;
    for (index_t b = 0; b < c.batch; ++b) {
      imgs.push_back(random_complex(g.image_elems(),
                                    c.seed ^ (0xA076u + static_cast<std::uint64_t>(b) * 77)));
      raws_in.push_back(random_complex(set.count(),
                                       c.seed ^ (0xB152u + static_cast<std::uint64_t>(b) * 131)));
    }
    for (index_t b = 0; b < c.batch; ++b) {
      img_ptrs.push_back(imgs[static_cast<std::size_t>(b)].data());
      rawin_ptrs.push_back(raws_in[static_cast<std::size_t>(b)].data());
    }
    for (std::size_t v = 0; v < plans.size(); ++v) {
      Nufft& bplan = *plans[v];
      std::vector<cvecf> raws_out, imgs_out;
      std::vector<cfloat*> rawout_ptrs, imgout_ptrs;
      for (index_t b = 0; b < c.batch; ++b) {
        raws_out.emplace_back(static_cast<std::size_t>(set.count()));
        imgs_out.emplace_back(static_cast<std::size_t>(g.image_elems()));
      }
      for (index_t b = 0; b < c.batch; ++b) {
        rawout_ptrs.push_back(raws_out[static_cast<std::size_t>(b)].data());
        imgout_ptrs.push_back(imgs_out[static_cast<std::size_t>(b)].data());
      }
      exec::BatchNufft batch(bplan, c.batch);
      batch.forward(img_ptrs.data(), rawout_ptrs.data(), c.batch);
      batch.adjoint(rawin_ptrs.data(), imgout_ptrs.data(), c.batch);

      cvecf single_raw(static_cast<std::size_t>(set.count()));
      cvecf single_img(static_cast<std::size_t>(g.image_elems()));
      for (index_t b = 0; b < c.batch; ++b) {
        const auto bs = static_cast<std::size_t>(b);
        const std::string slice =
            std::string(variants[v].name) + " batch slice " + std::to_string(b);
        bplan.forward(imgs[bs].data(), single_raw.data());
        rep.check_bitwise(slice + " forward vs single apply", raws_out[bs].data(),
                          single_raw.data(), set.count());
        bplan.adjoint(raws_in[bs].data(), single_img.data());
        rep.check_bitwise(slice + " adjoint vs single apply", imgs_out[bs].data(),
                          single_img.data(), g.image_elems());
      }
    }

    // The Toeplitz apply's batch schedule (whole slices per context, leftover
    // slices row-split) at the config's pool width: each slice equals its
    // single apply bitwise, on every backend. Needs the embedding grid
    // (m ≥ 2n − 1); d ≥ 2, where slices run through that schedule.
    if (c.dim >= 2 && c.m >= 2 * c.n - 1) {
      for (std::size_t v = 0; v < plans.size(); ++v) {
        Workspace ws = plans[v]->make_workspace(c.batch);
        Workspace ws1 = plans[v]->make_workspace(1);
        const ToeplitzNormal normal(*plans[v], ws, pool);
        std::vector<cvecf> outs(static_cast<std::size_t>(c.batch),
                                cvecf(static_cast<std::size_t>(g.image_elems())));
        std::vector<cfloat*> out_ptrs;
        for (auto& o : outs) out_ptrs.push_back(o.data());
        normal.apply(img_ptrs.data(), out_ptrs.data(), c.batch, ws, pool);
        cvecf single(static_cast<std::size_t>(g.image_elems()));
        for (index_t b = 0; b < c.batch; ++b) {
          const auto bs = static_cast<std::size_t>(b);
          normal.apply(imgs[bs].data(), single.data(), ws1, pool);
          rep.check_bitwise(std::string(variants[v].name) + " toeplitz slice " +
                                std::to_string(b) + " vs single apply",
                            outs[bs].data(), single.data(), g.image_elems());
        }
      }
    }
  }

  // Raw kernel-level baselines against the plan's deterministic spread.
  // With the LUT evaluator the two sides share identical kernel weights and
  // only the reduction strategy differs; a Horner-evaluated plan differs
  // from the baselines' LUT by the evaluator delta, dominated by the ES
  // kernel's sqrt-singular support edge (scale exp(−β)).
  {
    const auto kernel = kernels::make_kernel(c.kernel, c.kernel_radius, c.alpha);
    const kernels::KernelLut lut(*kernel, c.lut_samples_per_unit);
    scalar_plan.spread(raw_in.data());
    const cfloat* plan_grid = scalar_plan.grid_data();

    double spread_tol = 1e-3;
    if (c.eval == kernels::KernelEval::kHorner && c.kernel == kernels::KernelType::kEs) {
      spread_tol += 5.0 * std::exp(-kernels::EsKernel::es_beta(c.kernel_radius, c.alpha));
    }

    cvecf atomic_grid(static_cast<std::size_t>(g.grid_elems()), cfloat(0, 0));
    baselines::spread_atomic(g, lut, set, raw_in.data(), atomic_grid.data(), pool);
    rep.check_rel("spread_atomic vs plan spread",
                  rel_err(atomic_grid.data(), plan_grid, g.grid_elems()), spread_tol);

    cvecf priv_grid(static_cast<std::size_t>(g.grid_elems()), cfloat(0, 0));
    baselines::spread_privatized(g, lut, set, raw_in.data(), priv_grid.data(), pool);
    rep.check_rel("spread_privatized vs plan spread",
                  rel_err(priv_grid.data(), plan_grid, g.grid_elems()), spread_tol);
  }

  // Streaming trajectory deltas (DESIGN.md §15): jitter a fraction of the
  // samples per frame, stream the frames through update_samples on one
  // resident plan, and hold the warm path to both contracts at once — the
  // accuracy contract (forward/adjoint vs the exact NUDFT on the *new*
  // coordinates) and the determinism contract (bit-exact agreement with a
  // cold plan of the same frame; tol 0.0 means any nonzero diff fails).
  if (c.update_frames > 0 && c.count > 0) {
    const PlanConfig cfg = base_config(c);
    Nufft stream(g, set, cfg);
    datasets::SampleSet frame = set;
    Rng jrng(c.seed ^ 0x9FB21C651E98DF25ull);
    for (int f = 0; f < c.update_frames; ++f) {
      for (index_t i = 0; i < c.count; ++i) {
        if (!(jrng.uniform(0.0, 1.0) < c.jitter_fraction)) continue;
        for (int d = 0; d < c.dim; ++d) {
          auto& v = frame.coords[static_cast<std::size_t>(d)][static_cast<std::size_t>(i)];
          v = clamp_coord(static_cast<double>(v) +
                              jrng.normal(0.0, static_cast<double>(c.m) / 16.0),
                          c.m);
        }
      }
      stream.update_samples(frame);

      std::vector<cdouble> ffwd(static_cast<std::size_t>(frame.count()));
      std::vector<cdouble> fadj(static_cast<std::size_t>(g.image_elems()));
      baselines::nudft_forward(g, frame, img_in.data(), ffwd.data(), pool);
      baselines::nudft_adjoint(g, frame, raw_in.data(), fadj.data(), pool);

      cvecf raw_out(static_cast<std::size_t>(frame.count()));
      cvecf img_out(static_cast<std::size_t>(g.image_elems()));
      stream.forward(img_in.data(), raw_out.data());
      stream.adjoint(raw_in.data(), img_out.data());
      const std::string tag = "frame " + std::to_string(f);
      const std::string fn = "updated plan forward vs NUDFT (" + tag + ")";
      const std::string an = "updated plan adjoint vs NUDFT (" + tag + ")";
      rep.check_rel(fn.c_str(), rel_err(raw_out.data(), ffwd.data(), frame.count()), tol);
      rep.check_rel(an.c_str(), rel_err(img_out.data(), fadj.data(), g.image_elems()), tol);

      Nufft cold(g, frame, cfg);
      cvecf raw_cold(static_cast<std::size_t>(frame.count()));
      cvecf img_cold(static_cast<std::size_t>(g.image_elems()));
      cold.forward(img_in.data(), raw_cold.data());
      cold.adjoint(raw_in.data(), img_cold.data());
      const std::string fx = "updated plan forward vs cold rebuild (" + tag + ", bit-exact)";
      const std::string ax = "updated plan adjoint vs cold rebuild (" + tag + ", bit-exact)";
      rep.check_rel(fx.c_str(), rel_err(raw_out.data(), raw_cold.data(), frame.count()), 0.0);
      rep.check_rel(ax.c_str(), rel_err(img_out.data(), img_cold.data(), g.image_elems()), 0.0);
    }
  }

  // The full-grid-privatization reference operator (Kaiser–Bessel only —
  // its constructor hard-codes the paper's kernel).
  if (c.kernel == kernels::KernelType::kKaiserBessel) {
    baselines::ReferenceNufft ref(g, set, c.kernel_radius, c.threads);
    cvecf raw_out(static_cast<std::size_t>(set.count()));
    ref.forward(img_in.data(), raw_out.data());
    rep.check_rel("ReferenceNufft forward vs NUDFT",
                  rel_err(raw_out.data(), fwd_ref.data(), set.count()), tol);
    cvecf img_out(static_cast<std::size_t>(g.image_elems()));
    ref.adjoint(raw_in.data(), img_out.data());
    rep.check_rel("ReferenceNufft adjoint vs NUDFT",
                  rel_err(img_out.data(), adj_ref.data(), g.image_elems()), tol);
  }
}

}  // namespace

std::vector<std::string> run_differential(const FuzzConfig& c) {
  Report rep(c);
  try {
    if (c.footprint_exceeds_grid()) {
      run_tiny_grid(c, rep);
    } else {
      run_full(c, rep);
    }
  } catch (const std::exception& e) {
    rep.fail() << "unexpected exception: " << e.what();
  }
  return rep.finish();
}

}  // namespace nufft::fuzz
