#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <functional>
#include <thread>

#include "baselines/nudft.hpp"
#include "core/nufft.hpp"
#include "mri/coils.hpp"
#include "mri/recon.hpp"
#include "probe.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace bench_layers {

namespace {

using nufft::GridDesc;
using nufft::Nufft;
using nufft::PlanConfig;
using nufft::datasets::SampleSet;
using nufft::datasets::TrajectoryType;

constexpr int kWarmupOps = 3;
constexpr double kWarmupSeconds = 1.0;
// Timed loops sample the reference between slices of at least this long
// (a slice always holds one op at least).
constexpr double kSliceSeconds = 0.1;
constexpr index_t kCheckSamples = 256;

double now_s() { return static_cast<double>(nufft::now_ns()) * 1e-9; }

/// Relative L2 error of `fast` (a full forward output over `samples`)
/// against the exact NUDFT on kCheckSamples evenly strided samples.
double nudft_rel_err(const GridDesc& g, const SampleSet& samples, const cfloat* image,
                     const cfloat* fast) {
  const index_t n = std::min(kCheckSamples, samples.count());
  SampleSet sub;
  sub.dim = samples.dim;
  sub.m = samples.m;
  sub.k = n;
  sub.s = 1;
  sub.type = samples.type;
  cvecf picked(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    const auto src = static_cast<std::size_t>(i * samples.count() / n);
    for (int d = 0; d < samples.dim; ++d) {
      sub.coords[static_cast<std::size_t>(d)].push_back(samples.coords[static_cast<std::size_t>(d)][src]);
    }
    picked[static_cast<std::size_t>(i)] = fast[src];
  }
  std::vector<cdouble> ref(static_cast<std::size_t>(n));
  nufft::ThreadPool pool(kPoolThreads);
  nufft::baselines::nudft_forward(g, sub, image, ref.data(), pool);
  return rel_l2(picked.data(), ref.data(), n);
}

/// One op as the closed loop sees it.
struct OpTime {
  double seconds = 0.0;    // measured time, untimed generation excluded
  std::uint64_t ops = 1;   // ops this call completed (mri: one solve = 8)
  double untimed_s = 0.0;  // input generation inside the call, not counted
  bool ok = true;
};

/// Times f() as a bench "op" span when traced, silently otherwise.
template <class F>
double time_op(bool traced, F&& f) {
  return traced ? timed_span("op", f) : timed(f);
}

/// Ops and wall time of one stretch of a loop, as measured.
struct Slice {
  std::vector<double> op_ms;
  std::uint64_t ops = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;

  void add(const OpTime& t) {
    attempted += t.ops;
    if (t.ok) {
      ops += t.ops;
      op_ms.push_back(t.seconds * 1e3 / static_cast<double>(t.ops));
    } else {
      failed += t.ops;
    }
  }
};

void add_slice(LoopStats& st, const Slice& s, double speed) {
  for (const double ms : s.op_ms) {
    st.op_ms.push_back(ms * speed);
    st.raw_op_ms.push_back(ms);
  }
  st.ops += s.ops;
  st.attempted += s.attempted;
  st.failed += s.failed;
  st.wall_s += s.wall_s;
  st.speed_wall_s += s.wall_s * speed;
}

/// Runs slice(loop_start) back to back for `seconds` (at least once),
/// sampling the reference between slices. Each slice is added at the speed
/// factor of the two samples around it, which is also handed to added().
template <class SliceFn>
LoopStats sliced(double seconds, Reference& ref, SliceFn slice,
                 const std::function<void(double)>& added = [](double) {}) {
  LoopStats st;
  double before = ref.measure_ms();
  const double t0 = now_s();
  do {
    const Slice s = slice(t0);
    const double after = ref.measure_ms();
    const double speed = speed_factor(before, after);
    add_slice(st, s, speed);
    added(speed);
    before = after;
  } while (now_s() - t0 < seconds);
  return st;
}

/// Runs step(), which returns the ops it completed, until at least
/// kWarmupOps ops and kWarmupSeconds have passed: caches, lazily leased
/// buffers and the host settle before anything is timed.
template <class Step>
void warm_up(Step step) {
  const double t0 = now_s();
  std::uint64_t ops = 0;
  while (ops < kWarmupOps || now_s() - t0 < kWarmupSeconds) ops += step();
}

/// Growth of the peak resident set from the start of a traced loop to its
/// end, in MiB.
class RssGrowth {
 public:
  RssGrowth() : start_(peak_rss_mb()) {}
  void record(LayerLog& log) const { log.add("mem.loop_growth_mb", peak_rss_mb() - start_); }

 private:
  double start_;
};

SampleSet trajectory(TrajectoryType type, int dim, index_t n, index_t k, index_t s,
                     std::uint64_t seed) {
  nufft::datasets::TrajectoryParams p;
  p.n = n;
  p.k = k;
  p.s = s;
  p.seed = seed;
  return nufft::datasets::make_trajectory(type, dim, p);
}

const char* kernel_name(nufft::kernels::KernelType k) {
  switch (k) {
    case nufft::kernels::KernelType::kKaiserBessel: return "kaiser_bessel";
    case nufft::kernels::KernelType::kGaussian: return "gaussian";
    case nufft::kernels::KernelType::kEs: return "es";
  }
  return "?";
}

void describe_plan(Report& r, const GridDesc& g, const SampleSet& s, const PlanConfig& cfg,
                   double update_fraction) {
  r.context("dim", g.dim);
  r.context("image_n", static_cast<double>(g.n[0]));
  r.context("grid_m", static_cast<double>(g.m[0]));
  r.context("trajectory", nufft::datasets::trajectory_name(s.type));
  r.context("samples_k", static_cast<double>(s.k));
  r.context("samples_s", static_cast<double>(s.s));
  r.context("kernel", kernel_name(cfg.kernel));
  r.context("eval", cfg.eval == nufft::kernels::KernelEval::kHorner ? "horner" : "lut");
  r.context("tolerance", cfg.tolerance);
  r.context("plan_threads", cfg.threads);
  r.context("variable_partitions", cfg.variable_partitions ? 1.0 : 0.0);
  r.context("update_fraction", update_fraction);
}

/// Workloads that apply one in-process plan from the bench thread.
class PlanWorkload : public Workload {
 public:
  PlanWorkload(GridDesc g, SampleSet base, PlanConfig cfg, double update_fraction,
               double rel_err_limit, std::uint64_t seed)
      : g_(g),
        base_(std::move(base)),
        cur_(base_),
        cfg_(cfg),
        fraction_(update_fraction),
        limit_(rel_err_limit),
        seed_(seed),
        rng_(seed ^ 0x5eedULL) {}

  double setup() override {
    plan_.reset();  // one plan resident at a time, as in a real set-up
    return timed([&] { plan_ = std::make_shared<Nufft>(g_, base_, cfg_); });
  }

  void prepare() override {
    image_ = random_values(g_.image_elems(), rng_);
    raw_ = random_values(base_.count(), rng_);
    image_out_.resize(image_.size());
    raw_out_.resize(raw_.size());
  }

  void warmup() override {
    warm_up([this] { return op(false).ops; });
  }

  LoopStats run(double seconds, Reference& ref) override {
    return sliced(seconds, ref, [&](double t0) {
      Slice s;
      const double s0 = now_s();
      double untimed = 0.0;
      do {
        const OpTime t = op(false);
        s.add(t);
        untimed += t.untimed_s;
      } while (now_s() - s0 < kSliceSeconds && now_s() - t0 < seconds);
      s.wall_s = now_s() - s0 - untimed;
      return s;
    });
  }

  LoopStats run_traced(double seconds, Reference& ref, LayerLog& log) override {
    LayerProbe probe(plan_, cfg_, base_, fraction_, seed_ + 3, /*with_serve=*/true);
    nufft::obs::reset_spans();
    const RssGrowth rss;
    LoopStats st = sliced(
        seconds, ref,
        [&](double) {
          Slice s;
          const OpTime t = op(true);
          s.add(t);
          s.wall_s = t.seconds;
          if (t.ok) log.add_ms("op.whole_ms", s.op_ms.back());
          probe.run(cur_, log);
          return s;
        },
        [&](double speed) { log.commit(speed); });
    rss.record(log);
    return st;
  }

  double rel_err() override {
    plan_->forward(image_.data(), raw_out_.data());
    return nudft_rel_err(g_, cur_, image_.data(), raw_out_.data());
  }
  double rel_err_limit() const override { return limit_; }
  void check(Report&) override {}

  index_t probe_samples() const override { return base_.count(); }
  index_t probe_grid_cells() const override { return g_.grid_elems(); }
  void describe(Report& r) const override { describe_plan(r, g_, base_, cfg_, fraction_); }

 protected:
  virtual OpTime op(bool traced) = 0;

  GridDesc g_;
  SampleSet base_;
  SampleSet cur_;  // the plan's current trajectory
  PlanConfig cfg_;
  double fraction_;
  double limit_;
  std::uint64_t seed_;
  nufft::Rng rng_;
  std::shared_ptr<Nufft> plan_;
  cvecf image_, raw_, image_out_, raw_out_;
};

PlanConfig es_horner(double tolerance) {
  PlanConfig cfg;
  cfg.kernel = nufft::kernels::KernelType::kEs;
  cfg.eval = nufft::kernels::KernelEval::kHorner;
  cfg.tolerance = tolerance;
  cfg.threads = kPoolThreads;
  return cfg;
}

/// Non-batched forward + adjoint pair on one 3-D plan.
class Apply3d final : public PlanWorkload {
 public:
  explicit Apply3d(std::uint64_t seed)
      : PlanWorkload(nufft::make_grid(3, 64, 2.0),
                     trajectory(TrajectoryType::kRandom, 3, 64, 128, 1536, seed),
                     es_horner(1e-4), 0.2, 1e-4, seed) {}

  std::vector<std::string> op_parts() const override { return {"nufft.fwd_ms", "nufft.adj_ms"}; }

 private:
  OpTime op(bool traced) override {
    OpTime t;
    t.seconds = time_op(traced, [&] {
      plan_->forward(image_.data(), raw_out_.data());
      plan_->adjoint(raw_.data(), image_out_.data());
    });
    return t;
  }
};

/// Coil-batched CG solves of exactly kIters iterations each.
class MriCg3d final : public PlanWorkload {
 public:
  static constexpr int kCoils = 8;
  static constexpr int kIters = 8;

  explicit MriCg3d(std::uint64_t seed)
      : PlanWorkload(nufft::make_grid(3, 32, 2.0),
                     trajectory(TrajectoryType::kRadial, 3, 32, 64, 768, seed), kb_lut(),
                     0.2, 1e-5, seed) {}

  void prepare() override {
    PlanWorkload::prepare();
    recon_ = std::make_unique<nufft::mri::MultichannelRecon>(
        *plan_, nufft::mri::make_coil_maps(g_, kCoils));
    const cvecf truth = random_values(g_.image_elems(), rng_);
    data_ = recon_->simulate(truth.data());
  }

  void check(Report& r) override {
    r.check("cg_iterations", last_.cg.iterations == kIters, last_.cg.iterations, kIters);
    // CG on the normal equations minimizes ‖E x − y‖ over a growing Krylov
    // space that starts at x = 0, so the data misfit of the last solve must
    // lie below ‖y‖. (The normal-equation residuals CG records need not fall
    // monotonically, so they are no check.)
    const std::vector<cvecf> fit = recon_->simulate(last_.image.data());
    double num = 0.0;
    double den = 0.0;
    for (std::size_t c = 0; c < data_.size(); ++c) {
      for (std::size_t i = 0; i < data_[c].size(); ++i) {
        num += std::norm(std::complex<double>(fit[c][i]) - std::complex<double>(data_[c][i]));
        den += std::norm(std::complex<double>(data_[c][i]));
      }
    }
    const double ratio = den > 0.0 ? std::sqrt(num / den) : 1.0;
    r.check("cg_data_misfit_below_data", ratio < 1.0, ratio, 1.0);
  }

  std::vector<std::string> op_parts() const override { return {"batch.fwd_ms", "batch.adj_ms"}; }

  void describe(Report& r) const override {
    PlanWorkload::describe(r);
    r.context("coils", kCoils);
    r.context("cg_iterations", kIters);
  }

 private:
  static PlanConfig kb_lut() {
    PlanConfig cfg;  // the paper's configuration: Kaiser–Bessel W = 4, LUT
    cfg.threads = kPoolThreads;
    return cfg;
  }

  OpTime op(bool traced) override {
    nufft::mri::CgOptions opt;
    opt.max_iters = kIters;
    opt.tolerance = 0.0;  // never stop early: every solve is kIters iterations
    OpTime t;
    t.seconds = time_op(traced, [&] { last_ = recon_->reconstruct(data_, opt); });
    t.ops = kIters;
    t.ok = last_.cg.iterations == kIters;
    return t;
  }

  std::unique_ptr<nufft::mri::MultichannelRecon> recon_;
  std::vector<cvecf> data_;
  nufft::mri::ReconResult last_;
};

/// Per frame: jitter the trajectory (untimed), update_samples, one adjoint.
class Stream2d final : public PlanWorkload {
 public:
  explicit Stream2d(std::uint64_t seed)
      : PlanWorkload(nufft::make_grid(2, 128, 2.0),
                     trajectory(TrajectoryType::kRandom, 2, 128, 1024, 512, seed),
                     frames_config(), 0.2, 1e-2, seed) {}

  void check(Report& r) override {
    // The warm plan after the last frame must apply exactly like a plan
    // built cold on that frame.
    plan_->adjoint(raw_.data(), image_out_.data());
    Nufft cold(g_, cur_, cfg_);
    cvecf cold_out(image_out_.size());
    cold.adjoint(raw_.data(), cold_out.data());
    const bool same = bit_identical(image_out_.data(), cold_out.data(), g_.image_elems());
    r.check("warm_adjoint_bitwise_cold", same, same ? 0.0 : 1.0, 0.0);
    r.context("update_fallbacks", static_cast<double>(fallbacks_));
  }

  std::vector<std::string> op_parts() const override { return {"prep.update_ms", "nufft.adj_ms"}; }

 private:
  static PlanConfig frames_config() {
    PlanConfig cfg = es_horner(1e-2);
    // A fixed layout: with variable partitions a drifting histogram moves
    // boundaries and the update legitimately falls back to a cold rebuild.
    cfg.variable_partitions = false;
    return cfg;
  }

  OpTime op(bool traced) override {
    OpTime t;
    SampleSet next;
    t.untimed_s = timed([&] { next = jitter(base_, cur_, fraction_, rng_); });
    nufft::UpdatePath path = nufft::UpdatePath::kNoop;
    t.seconds = time_op(traced, [&] {
      path = plan_->update_samples(next);
      plan_->adjoint(raw_.data(), image_out_.data());
    });
    if (path == nufft::UpdatePath::kRebuild) ++fallbacks_;
    cur_ = std::move(next);
    return t;
  }

  std::uint64_t fallbacks_ = 0;
};

/// Two closed-loop clients, one tenant and one connection each, against an
/// in-process server. Per client, every kCycle RPCs are 10 forwards,
/// 9 adjoints and 1 update_samples on the client's own plan.
class ServeLoopback final : public Workload {
 public:
  static constexpr int kClients = 2;
  static constexpr int kCycle = 20;
  static constexpr double kUpdateFraction = 0.05;

  explicit ServeLoopback(std::uint64_t seed) : g_(nufft::make_grid(2, 32, 2.0)), seed_(seed) {
    const SampleSet radial = trajectory(TrajectoryType::kRadial, 2, 32, 64, 32, seed);
    nufft::Rng rng(seed);
    for (int c = 0; c < kClients; ++c) {
      // A full sub-cell jitter gives each client its own plan content.
      clients_[c].base = jitter(radial, radial, 1.0, rng);
      clients_[c].cur = clients_[c].base;
      clients_[c].rng = nufft::Rng(seed + 101 + static_cast<std::uint64_t>(c));
    }
    const cvecf img = random_values(g_.image_elems(), rng);
    const cvecf raw = random_values(radial.count(), rng);
    image_.assign(img.begin(), img.end());
    raw_.assign(raw.begin(), raw.end());
  }

  ~ServeLoopback() override { stop(); }

  double setup() override {
    stop();
    register_ms_.clear();
    for (auto& c : clients_) c.cur = c.base;
    return timed([&] {
      nufft::serve::ServeConfig sc;
      sc.socket_path = socket_path();
      sc.engine.workers = kClients;
      sc.engine.threads_per_worker = 1;
      server_ = std::make_unique<nufft::serve::NufftServer>(sc);
      server_->start();
      for (int c = 0; c < kClients; ++c) {
        Client& cl = clients_[c];
        cl.client = nufft::serve::NufftClient(client_options());
        cl.client.connect(sc.socket_path, "tenant-" + std::to_string(c));
        register_ms_.push_back(
            timed([&] { cl.plan_id = cl.client.register_plan(g_, cl.base, cfg_); }) * 1e3);
      }
    });
  }

  void prepare() override {
    mirror_ = std::make_shared<Nufft>(g_, clients_[0].base, cfg_);
    before_ok_ = bitwise_vs_in_process(*mirror_);
  }

  void warmup() override {
    // Transforms only: every update adds a plan version the server's engine
    // keeps resident, so updates stay inside the measured loop.
    warm_up([this] {
      for (auto& c : clients_) {
        c.client.forward(c.plan_id, image_);
        c.client.adjoint(c.plan_id, raw_);
      }
      return std::uint64_t{2 * kClients};
    });
  }

  LoopStats run(double seconds, Reference& ref) override {
    return sliced(seconds, ref, [&](double t0) {
      std::array<RpcTally, kClients> tallies;
      const double s0 = now_s();
      run_clients(tallies, [&](int) {
        const double t = now_s();
        return t - s0 < kSliceSeconds && t - t0 < seconds;
      });
      return slice_of(tallies, now_s() - s0);
    });
  }

  LoopStats run_traced(double seconds, Reference& ref, LayerLog& log) override {
    LayerProbe probe(mirror_, cfg_, clients_[0].base, kUpdateFraction, seed_ + 3,
                     /*with_serve=*/false);
    for (const double ms : register_ms_) log.add_ms("serve.register_ms", ms);
    nufft::obs::reset_spans();
    const RssGrowth rss;
    LoopStats st = sliced(
        seconds, ref,
        [&](double) {
          // One RPC cycle per client, then the component pass.
          std::array<RpcTally, kClients> tallies;
          for (auto& t : tallies) t.traced = true;
          std::array<int, kClients> done{};
          const double s0 = now_s();
          run_clients(tallies, [&](int c) { return done[c]++ < kCycle; });
          const Slice s = slice_of(tallies, now_s() - s0);
          for (const auto& t : tallies) t.merge_into(log);
          for (const double ms : s.op_ms) log.add_ms("op.whole_ms", ms);
          probe.run(clients_[0].base, log);
          return s;
        },
        [&](double speed) { log.commit(speed); });
    rss.record(log);
    return st;
  }

  double rel_err() override {
    Client& c = clients_[0];
    const auto res = c.client.forward(c.plan_id, image_);
    return nudft_rel_err(g_, c.cur, image_.data(), res.output.data());
  }
  double rel_err_limit() const override { return 1e-5; }

  void check(Report& r) override {
    r.check("serve_bitwise_before_update", before_ok_, before_ok_ ? 0.0 : 1.0, 0.0);
    // One more update, so the comparison runs on a warm-updated server plan.
    Client& c = clients_[0];
    SampleSet next = jitter(c.base, c.cur, kUpdateFraction, c.rng);
    const auto ack = c.client.update_samples(c.plan_id, next);
    c.cur = std::move(next);
    Nufft cold(g_, c.cur, cfg_);
    const bool after_ok = bitwise_vs_in_process(cold);
    r.check("serve_bitwise_after_update", after_ok, after_ok ? 0.0 : 1.0, 0.0);
    r.context("last_update_path", ack.path == nufft::serve::WireUpdatePath::kWarm ? "warm"
                                  : ack.path == nufft::serve::WireUpdatePath::kRebuild
                                      ? "rebuild"
                                      : "noop");
  }

  std::vector<std::string> op_parts() const override {
    return {"serve.queue_wait_ms", "serve.exec_ms"};
  }
  index_t probe_samples() const override { return clients_[0].base.count(); }
  index_t probe_grid_cells() const override { return g_.grid_elems(); }

  void describe(Report& r) const override {
    describe_plan(r, g_, clients_[0].base, cfg_, kUpdateFraction);
    r.context("clients", kClients);
    r.context("engine_workers", kClients);
    r.context("engine_threads_per_worker", 1);
    r.context("rpc_cycle", "10 forward, 9 adjoint, 1 update_samples per 20 RPCs");
  }

 private:
  struct Client {
    SampleSet base;
    SampleSet cur;  // the server plan's current trajectory
    nufft::Rng rng;
    nufft::serve::NufftClient client;
    std::uint64_t plan_id = 0;
    std::uint64_t next_rpc = 0;  // position in the RPC cycle, kept across loops
  };

  void stop() {
    for (auto& c : clients_) c.client.close();
    if (server_ != nullptr) server_->stop();
    server_.reset();
  }

  static Slice slice_of(const std::array<RpcTally, kClients>& tallies, double wall_s) {
    Slice s;
    for (const auto& t : tallies) {
      s.attempted += t.attempted;
      s.failed += t.failed + t.shed;
      s.ops += t.rtt_ms.size();
      s.op_ms.insert(s.op_ms.end(), t.rtt_ms.begin(), t.rtt_ms.end());
    }
    s.wall_s = wall_s;
    return s;
  }

  /// One RPC of client c's cycle.
  void rpc(Client& c, RpcTally& t) {
    const std::uint64_t k = c.next_rpc++ % kCycle;
    if (k == kCycle - 1) {
      SampleSet next = jitter(c.base, c.cur, kUpdateFraction, c.rng);
      if (t.update(c.client, c.plan_id, next) >= 0.0) c.cur = std::move(next);
    } else if (k % 2 == 0) {
      t.forward(c.client, c.plan_id, image_);
    } else {
      t.adjoint(c.client, c.plan_id, raw_);
    }
  }

  /// Runs every client on its own thread, one RPC at a time while more(client).
  template <class More>
  void run_clients(std::array<RpcTally, kClients>& tallies, More more) {
    std::array<std::thread, kClients> threads;
    for (int c = 0; c < kClients; ++c) {
      threads[c] = std::thread([&, c] {
        while (more(c)) rpc(clients_[c], tallies[c]);
      });
    }
    for (auto& th : threads) th.join();
  }

  /// Client 0's forward and adjoint replies equal an in-process plan's, bit
  /// for bit (the server's engine runs one thread per worker, as `ref` does).
  bool bitwise_vs_in_process(Nufft& ref) {
    Client& c = clients_[0];
    const auto fwd = c.client.forward(c.plan_id, image_);
    const auto adj = c.client.adjoint(c.plan_id, raw_);
    cvecf raw_ref(raw_.size());
    cvecf img_ref(image_.size());
    ref.forward(image_.data(), raw_ref.data());
    ref.adjoint(raw_.data(), img_ref.data());
    return fwd.output.size() == raw_ref.size() && adj.output.size() == img_ref.size() &&
           bit_identical(fwd.output.data(), raw_ref.data(), ref.sample_count()) &&
           bit_identical(adj.output.data(), img_ref.data(), ref.image_elems());
  }

  GridDesc g_;
  PlanConfig cfg_;  // the serving default: Kaiser–Bessel W = 4, LUT, one thread
  std::uint64_t seed_;
  std::array<Client, kClients> clients_;
  std::vector<cfloat> image_, raw_;
  std::unique_ptr<nufft::serve::NufftServer> server_;
  std::shared_ptr<Nufft> mirror_;  // in-process plan of client 0's base trajectory
  std::vector<double> register_ms_;  // the run's set-up registrations
  bool before_ok_ = false;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"apply3d_es", "mri_cg3d", "stream2d_frames",
                                                 "serve_loopback"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "apply3d_es") return std::make_unique<Apply3d>(seed);
  if (name == "mri_cg3d") return std::make_unique<MriCg3d>(seed);
  if (name == "stream2d_frames") return std::make_unique<Stream2d>(seed);
  if (name == "serve_loopback") return std::make_unique<ServeLoopback>(seed);
  return nullptr;
}

}  // namespace bench_layers
