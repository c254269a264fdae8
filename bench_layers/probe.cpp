#include "probe.hpp"

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <map>

#include "common/error.hpp"
#include "core/convolution.hpp"
#include "kernels/kernel.hpp"

namespace bench_layers {

using nufft::Nufft;
using nufft::datasets::SampleSet;

std::string socket_path() {
  static std::atomic<int> next{0};
  return ".bench_layers." + std::to_string(::getpid()) + "." + std::to_string(next++) + ".sock";
}

nufft::serve::ClientOptions client_options() {
  nufft::serve::ClientOptions o;
  o.io_timeout = std::chrono::milliseconds(60000);
  return o;
}

template <class F>
double RpcTally::call(const char* span, F&& rpc) {
  ++attempted;
  try {
    const double s = traced ? timed_span(span, rpc) : timed(rpc);
    rtt_ms.push_back(s * 1e3);
    return s;
  } catch (const nufft::Error& e) {
    ++(e.code() == nufft::ErrorCode::kOverloaded ? shed : failed);
    return -1.0;
  }
}

void RpcTally::phases(double rtt_s, const nufft::serve::RunResult& res) {
  if (rtt_s < 0.0) return;
  const double q = static_cast<double>(res.queue_wait_us) * 1e-3;
  const double x = static_cast<double>(res.exec_us) * 1e-3;
  queue_wait_ms.push_back(q);
  exec_ms.push_back(x);
  wire_ms.push_back(rtt_s * 1e3 - q - x);
}

double RpcTally::forward(nufft::serve::NufftClient& c, std::uint64_t plan_id,
                         const std::vector<cfloat>& in) {
  nufft::serve::RunResult res;
  const double s = call("serve.rtt_fwd", [&] { res = c.forward(plan_id, in); });
  phases(s, res);
  return s;
}

double RpcTally::adjoint(nufft::serve::NufftClient& c, std::uint64_t plan_id,
                         const std::vector<cfloat>& in) {
  nufft::serve::RunResult res;
  const double s = call("serve.rtt_adj", [&] { res = c.adjoint(plan_id, in); });
  phases(s, res);
  return s;
}

double RpcTally::update(nufft::serve::NufftClient& c, std::uint64_t plan_id,
                        const SampleSet& samples) {
  nufft::serve::UpdateAckMsg ack;
  const double s = call("serve.rtt_update", [&] { ack = c.update_samples(plan_id, samples); });
  if (s >= 0.0 && ack.path == nufft::serve::WireUpdatePath::kWarm) ++update_warm;
  if (s >= 0.0 && ack.path == nufft::serve::WireUpdatePath::kRebuild) ++update_fallback;
  return s;
}

void RpcTally::merge_into(LayerLog& log) const {
  for (const double v : rtt_ms) log.add_ms("serve.rtt_ms", v);
  for (const double v : queue_wait_ms) log.add_ms("serve.queue_wait_ms", v);
  for (const double v : exec_ms) log.add_ms("serve.exec_ms", v);
  for (const double v : wire_ms) log.add_ms("serve.wire_ms", v);
  log.add("serve.shed", static_cast<double>(shed));
  log.add("serve.failed", static_cast<double>(failed));
  log.add("registry.update_warm", static_cast<double>(update_warm));
  log.add("registry.update_fallback", static_cast<double>(update_fallback));
}

ServeProbe::ServeProbe(const nufft::GridDesc& g, const SampleSet& base,
                       const nufft::PlanConfig& cfg, double update_fraction, std::uint64_t seed)
    : base_(base), current_(base), fraction_(update_fraction), rng_(seed), client_(client_options()) {
  const cvecf img = random_values(g.image_elems(), rng_);
  const cvecf raw = random_values(base.count(), rng_);
  image_.assign(img.begin(), img.end());
  raw_.assign(raw.begin(), raw.end());

  nufft::serve::ServeConfig sc;
  sc.socket_path = socket_path();
  sc.engine.workers = 1;
  sc.engine.threads_per_worker = cfg.threads;
  server_ = std::make_unique<nufft::serve::NufftServer>(sc);
  server_->start();
  client_.connect(sc.socket_path, "probe");
  register_ms_ = timed([&] { plan_id_ = client_.register_plan(g, base, cfg); }) * 1e3;
}

ServeProbe::~ServeProbe() {
  client_.close();
  server_->stop();
}

void ServeProbe::run(LayerLog& log) {
  if (register_ms_ > 0.0) log.add_ms("serve.register_ms", register_ms_);
  register_ms_ = 0.0;
  RpcTally t;
  t.traced = true;
  t.forward(client_, plan_id_, image_);
  t.adjoint(client_, plan_id_, raw_);
  // The server's engine keeps every plan version it has run resident, so
  // a few updates measure the path without growing memory for the run.
  if (updates_ < kProbeServeUpdates) {
    ++updates_;
    SampleSet next = jitter(base_, current_, fraction_, rng_);
    if (t.update(client_, plan_id_, next) >= 0.0) current_ = std::move(next);
  }
  t.merge_into(log);
}

LayerProbe::LayerProbe(std::shared_ptr<Nufft> plan, const nufft::PlanConfig& cfg,
                       const SampleSet& base, double update_fraction, std::uint64_t seed,
                       bool with_serve)
    : plan_(std::move(plan)), cfg_(cfg), base_(base), fraction_(update_fraction), rng_(seed) {
  const nufft::GridDesc& g = plan_->grid_desc();
  image_ = random_values(g.image_elems(), rng_);
  image_out_.resize(image_.size());
  raw_ = random_values(plan_->sample_count(), rng_);
  raw_out_.resize(raw_.size());
  batch_images_ = random_values(g.image_elems() * kProbeBatch, rng_);
  batch_images_out_.resize(batch_images_.size());
  batch_raws_ = random_values(plan_->sample_count() * kProbeBatch, rng_);
  fft_src_ = random_values(g.grid_elems(), rng_);
  fft_buf_.resize(fft_src_.size());

  std::vector<std::size_t> dims;
  for (int d = 0; d < g.dim; ++d) dims.push_back(static_cast<std::size_t>(g.m[static_cast<std::size_t>(d)]));
  fft_fwd_ = std::make_unique<nufft::fft::FftNd<float>>(dims, nufft::fft::Direction::kForward);
  fft_inv_ = std::make_unique<nufft::fft::FftNd<float>>(dims, nufft::fft::Direction::kInverse);

  // Part 1's evaluator, rebuilt from the plan's resolved config exactly as
  // the plan builds its own.
  const nufft::PlanConfig& rc = plan_->config();
  const auto kernel = nufft::kernels::make_kernel(rc.kernel, rc.kernel_radius, g.alpha);
  lut_ = std::make_unique<nufft::kernels::KernelLut>(*kernel, rc.lut_samples_per_unit);
  if (rc.eval == nufft::kernels::KernelEval::kHorner) {
    horner_ = std::make_unique<nufft::kernels::KernelHorner>(*kernel);
  }

  bind_plan_state();
  if (with_serve) {
    serve_ = std::make_unique<ServeProbe>(g, base_, cfg_, fraction_, seed + 7);
  }
}

void LayerProbe::bind_plan_state() {
  // Both size per-task private buffers from the plan's privatization marks,
  // which an in-place update_samples may change: drop the old ones first.
  engine_.reset();
  batch_.reset();
  batch_ = std::make_unique<nufft::exec::BatchNufft>(*plan_, kProbeBatch);
  nufft::exec::EngineConfig ec;
  ec.workers = 1;
  ec.threads_per_worker = plan_->config().threads;
  engine_ = std::make_unique<nufft::exec::NufftEngine>(ec);
  // Untimed first submit: leases the engine's workspace for this plan.
  engine_->submit(nufft::exec::Op::kForward, plan_, image_.data(), raw_out_.data()).get();
  bound_generation_ = plan_->plan_stats().generation;
}

void LayerProbe::part1() {
  const nufft::GridDesc& g = plan_->grid_desc();
  const nufft::Preprocessed& pp = plan_->plan();
  nufft::WindowEval ev;
  if (horner_ != nullptr) {
    ev.horner = horner_.get();
  } else {
    ev.lut = lut_.get();
  }
  const bool dup = plan_->conv_mode() != Nufft::ConvMode::kScalar;
  nufft::ThreadPool& pool = plan_->pool();
  std::vector<float> acc(static_cast<std::size_t>(pool.size()), 0.0f);
  pool.parallel_for_tid(plan_->sample_count(), 4096, [&](int tid, index_t b, index_t e) {
    nufft::WindowBuf wb;
    float s = 0.0f;
    for (index_t i = b; i < e; ++i) {
      float c[3] = {0.0f, 0.0f, 0.0f};
      for (int d = 0; d < g.dim; ++d) {
        c[d] = pp.coords[static_cast<std::size_t>(d)][static_cast<std::size_t>(i)];
      }
      nufft::compute_window(g, ev, c, g.dim, dup, wb);
      s += wb.win[0][0];
    }
    acc[static_cast<std::size_t>(tid)] += s;
  });
  for (const float s : acc) sink_ += s;
}

void LayerProbe::run(const SampleSet& samples, LayerLog& log) {
  Nufft& p = *plan_;
  nufft::ThreadPool& pool = p.pool();
  if (p.plan_stats().generation != bound_generation_) bind_plan_state();

  timed_span("scale.fwd", [&] { p.image_to_grid(image_.data()); });
  timed_span("conv.interp", [&] { p.interp(raw_out_.data()); });
  timed_span("conv.spread", [&] { p.spread(raw_.data()); });
  timed_span("scale.adj", [&] { p.grid_to_image(image_out_.data()); });
  timed_span("conv.part1", [&] { part1(); });

  // Fresh input per transform: a forward/inverse round trip scales by M^d
  // and would overflow within a few iterations.
  std::memcpy(fft_buf_.data(), fft_src_.data(), fft_src_.size() * sizeof(cfloat));
  timed_span("fft.fwd", [&] { fft_fwd_->transform(fft_buf_.data(), pool); });
  std::memcpy(fft_buf_.data(), fft_src_.data(), fft_src_.size() * sizeof(cfloat));
  timed_span("fft.adj", [&] { fft_inv_->transform(fft_buf_.data(), pool); });

  timed_span("nufft.fwd", [&] { p.forward(image_.data(), raw_out_.data()); });
  timed_span("nufft.adj", [&] { p.adjoint(raw_.data(), image_out_.data()); });
  const nufft::OperatorStats& adj = p.last_adjoint_stats();
  log.add("sched.load_imbalance", adj.load_imbalance());
  log.add("sched.privatized_tasks", adj.privatized_tasks);

  timed_span("batch.fwd", [&] { batch_->forward(batch_images_.data(), batch_raws_.data(), kProbeBatch); });
  {
    const nufft::OperatorStats& s = batch_->last_forward_stats();
    log.add_ms("batch.fwd_conv_ms", s.conv_s * 1e3);
    log.add_ms("batch.fwd_fft_ms", s.fft_s * 1e3);
    log.add_ms("batch.fwd_scale_ms", s.scale_s * 1e3);
  }
  timed_span("batch.adj", [&] { batch_->adjoint(batch_raws_.data(), batch_images_out_.data(), kProbeBatch); });
  {
    const nufft::OperatorStats& s = batch_->last_adjoint_stats();
    log.add_ms("batch.adj_conv_ms", s.conv_s * 1e3);
    log.add_ms("batch.adj_fft_ms", s.fft_s * 1e3);
    log.add_ms("batch.adj_scale_ms", s.scale_s * 1e3);
  }

  nufft::exec::JobResult job;
  const double engine_s = timed_span("engine.forward", [&] {
    job = engine_->submit(nufft::exec::Op::kForward, plan_, image_.data(), raw_out_.data()).get();
  });
  log.add_ms("engine.overhead_ms", (engine_s - job.stats.total_s) * 1e3);

  std::unique_ptr<Nufft> cold;
  timed_span("prep.build", [&] { cold = std::make_unique<Nufft>(p.grid_desc(), samples, cfg_); });
  const nufft::PreprocessStats& ps = cold->plan().stats;
  log.add_ms("prep.partition_ms", ps.partition_s * 1e3);
  log.add_ms("prep.bin_ms", ps.bin_s * 1e3);
  log.add_ms("prep.reorder_ms", ps.reorder_s * 1e3);
  log.add_ms("prep.gather_ms", ps.gather_s * 1e3);
  log.add_ms("prep.graph_ms", ps.graph_s * 1e3);
  const SampleSet next = jitter(base_, samples, fraction_, rng_);
  nufft::UpdatePath path = nufft::UpdatePath::kNoop;
  timed_span("prep.update", [&] { path = cold->update_samples(next); });
  log.add("prep.rebinned_samples", static_cast<double>(cold->plan().stats.rebinned_samples));
  log.add("prep.dirty_tasks", cold->plan().stats.dirty_tasks);
  log.add("prep.update_fallbacks", path == nufft::UpdatePath::kRebuild ? 1.0 : 0.0);
  cold.reset();

  if (serve_ != nullptr) serve_->run(log);
}

namespace {

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

}  // namespace

void report_layers(const LayerLog& log, const std::vector<std::string>& op_parts,
                   index_t samples, index_t grid_cells, Report& r) {
  std::map<std::string, double> v;
  auto span = [&](const std::string& metric, const char* span_name) {
    v[metric] = log.median_ms(span_name);
  };
  auto med = [&](const std::string& name) { v[name] = median(log.values(name)); };

  span("prep.build_ms", "prep.build");
  for (const char* s : {"prep.partition_ms", "prep.bin_ms", "prep.reorder_ms", "prep.gather_ms",
                        "prep.graph_ms"}) {
    med(s);
  }
  v["prep.other_ms"] = v["prep.build_ms"] - v["prep.partition_ms"] - v["prep.bin_ms"] -
                       v["prep.reorder_ms"] - v["prep.gather_ms"] - v["prep.graph_ms"];
  span("prep.update_ms", "prep.update");
  med("prep.rebinned_samples");
  med("prep.dirty_tasks");
  v["prep.update_fallbacks"] = sum(log.values("prep.update_fallbacks"));

  span("conv.part1_ms", "conv.part1");
  span("conv.interp_ms", "conv.interp");
  v["conv.part2_fwd_ms"] = v["conv.interp_ms"] - v["conv.part1_ms"];
  span("conv.spread_ms", "conv.spread");
  v["conv.ns_per_sample"] =
      (v["conv.interp_ms"] + v["conv.spread_ms"]) * 1e6 / (2.0 * static_cast<double>(samples));

  span("fft.fwd_ms", "fft.fwd");
  span("fft.adj_ms", "fft.adj");
  v["fft.ns_per_cell"] =
      (v["fft.fwd_ms"] + v["fft.adj_ms"]) * 1e6 / (2.0 * static_cast<double>(grid_cells));

  span("scale.fwd_ms", "scale.fwd");
  span("scale.adj_ms", "scale.adj");

  span("nufft.fwd_ms", "nufft.fwd");
  span("nufft.adj_ms", "nufft.adj");
  v["remainder.fwd_ms"] =
      v["nufft.fwd_ms"] - v["scale.fwd_ms"] - v["fft.fwd_ms"] - v["conv.interp_ms"];
  v["remainder.adj_ms"] =
      v["nufft.adj_ms"] - v["conv.spread_ms"] - v["fft.adj_ms"] - v["scale.adj_ms"];
  med("sched.load_imbalance");
  med("sched.privatized_tasks");

  span("batch.fwd_ms", "batch.fwd");
  span("batch.adj_ms", "batch.adj");
  double batch_parts = 0.0;
  for (const char* s : {"batch.fwd_conv_ms", "batch.fwd_fft_ms", "batch.fwd_scale_ms",
                        "batch.adj_conv_ms", "batch.adj_fft_ms", "batch.adj_scale_ms"}) {
    med(s);
    batch_parts += v[s];
  }
  v["batch.remainder_ms"] = v["batch.fwd_ms"] + v["batch.adj_ms"] - batch_parts;

  med("engine.overhead_ms");

  med("serve.register_ms");
  span("serve.rtt_fwd_ms_p50", "serve.rtt_fwd");
  span("serve.rtt_adj_ms_p50", "serve.rtt_adj");
  span("serve.rtt_update_ms_p50", "serve.rtt_update");
  v["serve.rtt_ms_p99"] = quantile(log.values("serve.rtt_ms"), 0.99);
  // Means, not medians: the server reports whole microseconds, and means
  // keep rtt = queue wait + exec + wire additive over transform RPCs.
  v["serve.queue_wait_ms"] = mean(log.values("serve.queue_wait_ms"));
  v["serve.exec_ms"] = mean(log.values("serve.exec_ms"));
  v["serve.wire_ms"] = mean(log.values("serve.wire_ms"));
  v["serve.shed"] = sum(log.values("serve.shed"));
  v["serve.failed"] = sum(log.values("serve.failed"));
  v["registry.update_warm"] = sum(log.values("registry.update_warm"));
  v["registry.update_fallback"] = sum(log.values("registry.update_fallback"));

  v["op.whole_ms"] = median(log.values("op.whole_ms"));
  double parts = 0.0;
  for (const auto& name : op_parts) parts += v.at(name);
  v["op.parts_ms"] = parts;
  v["op.remainder_ms"] = v["op.whole_ms"] - parts;

  med("mem.loop_growth_mb");
  v["trace.dropped_spans"] = static_cast<double>(nufft::obs::dropped_spans());
  med("accuracy.rel_err");

  const std::size_t iters = log.span_ms("conv.part1").size();
  for (const auto& [name, value] : v) {
    std::string unit = "count";
    if (name.ends_with("_ms") || name.find("_ms_") != std::string::npos) {
      unit = "ms";
    } else if (name.find(".ns_per_") != std::string::npos) {
      unit = "ns";
    } else if (name.ends_with("_mb")) {
      unit = "MiB";
    } else if (name == "sched.load_imbalance" || name == "accuracy.rel_err") {
      unit = "ratio";
    }
    r.metric(name, value, unit, iters);
  }
}

}  // namespace bench_layers
