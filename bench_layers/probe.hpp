// The per-layer component pass of a traced iteration.
//
// After a workload's whole op, a traced iteration times each layer on the
// same plan and pool through public entry points, one bench span per call:
//
//   scale    Nufft::image_to_grid / grid_to_image
//   conv     a compute_window-only pass over the plan's reordered
//            coordinates (Part 1, the paper's Fig. 7 method), and
//            Nufft::interp / Nufft::spread (Part 1 + Part 2)
//   fft      a bench-owned fft::FftNd of the plan's grid on the plan's pool
//   nufft    whole Nufft::forward / adjoint
//   batch    exec::BatchNufft at B = kProbeBatch
//   engine   exec::NufftEngine::submit of one forward
//   prep     a cold Nufft constructor, then update_samples on that plan
//   serve    a forward and an adjoint RPC (plus update_samples in the first
//            kProbeServeUpdates passes) through a NufftClient against an
//            in-process NufftServer holding the same plan
//
// Layer remainders (whole − Σ components) are computed from medians and
// reported signed, so components plus remainder equal the whole exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/nufft.hpp"
#include "exec/batch_nufft.hpp"
#include "exec/engine.hpp"
#include "fft/fftnd.hpp"
#include "harness.hpp"
#include "kernels/horner.hpp"
#include "kernels/lut.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace bench_layers {

/// Batch width of the batched-layer probe (the MRI workload's coil count).
constexpr index_t kProbeBatch = 8;

/// update_samples RPCs a ServeProbe sends over a whole run.
constexpr int kProbeServeUpdates = 3;

/// A unique AF_UNIX socket path relative to the working directory, so the
/// benchmark never writes outside the directory it runs in.
std::string socket_path();

/// Client options for every benchmark connection. A cold register of the
/// largest plan, or a forward on a busy host, may run for seconds without a
/// byte on the socket.
nufft::serve::ClientOptions client_options();

/// Client-side record of serve RPCs: bench spans serve.rtt_{fwd,adj,update}
/// plus the server-reported phase times, merged into a LayerLog afterwards
/// (one tally per client thread; LayerLog is not thread-safe).
struct RpcTally {
  bool traced = false;                // record each RPC as a bench span
  std::vector<double> rtt_ms;         // every successful RPC
  std::vector<double> queue_wait_ms;  // transform RPCs: server admission → dispatch
  std::vector<double> exec_ms;        // transform RPCs: operator time in the engine
  std::vector<double> wire_ms;        // transform RPCs: rtt − queue wait − exec
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  std::uint64_t update_warm = 0;
  std::uint64_t update_fallback = 0;

  /// Each returns the RPC's round trip in seconds, or a negative value when
  /// it failed (counted in failed / shed).
  double forward(nufft::serve::NufftClient& c, std::uint64_t plan_id,
                 const std::vector<cfloat>& in);
  double adjoint(nufft::serve::NufftClient& c, std::uint64_t plan_id,
                 const std::vector<cfloat>& in);
  double update(nufft::serve::NufftClient& c, std::uint64_t plan_id,
                const nufft::datasets::SampleSet& samples);

  void merge_into(LayerLog& log) const;

 private:
  template <class F>
  double call(const char* span, F&& rpc);
  void phases(double rtt_s, const nufft::serve::RunResult& res);
};

/// Serve layer for workloads that are not served: an in-process server with
/// one engine worker of the plan's pool width, one client and one tenant.
class ServeProbe {
 public:
  ServeProbe(const nufft::GridDesc& g, const nufft::datasets::SampleSet& base,
             const nufft::PlanConfig& cfg, double update_fraction, std::uint64_t seed);
  ~ServeProbe();

  ServeProbe(const ServeProbe&) = delete;
  ServeProbe& operator=(const ServeProbe&) = delete;

  void run(LayerLog& log);

 private:
  nufft::datasets::SampleSet base_;
  nufft::datasets::SampleSet current_;
  double fraction_;
  nufft::Rng rng_;
  std::vector<cfloat> image_;
  std::vector<cfloat> raw_;
  std::unique_ptr<nufft::serve::NufftServer> server_;
  nufft::serve::NufftClient client_;
  std::uint64_t plan_id_ = 0;
  double register_ms_ = 0.0;  // logged by the first run()
  int updates_ = 0;
};

class LayerProbe {
 public:
  /// `plan` is measured in place; `cfg` is the workload's (unresolved)
  /// config for the cold-build probe; `base` anchors the update jitter.
  LayerProbe(std::shared_ptr<nufft::Nufft> plan, const nufft::PlanConfig& cfg,
             const nufft::datasets::SampleSet& base, double update_fraction,
             std::uint64_t seed, bool with_serve);

  /// One component pass; `samples` is the plan's current trajectory.
  void run(const nufft::datasets::SampleSet& samples, LayerLog& log);

 private:
  void part1();
  /// (Re)builds the BatchNufft and engine for the plan's current generation.
  void bind_plan_state();

  std::shared_ptr<nufft::Nufft> plan_;
  std::uint64_t bound_generation_ = 0;
  nufft::PlanConfig cfg_;
  nufft::datasets::SampleSet base_;
  double fraction_;
  nufft::Rng rng_;
  cvecf image_, image_out_, raw_, raw_out_;
  cvecf batch_images_, batch_images_out_, batch_raws_;
  cvecf fft_src_, fft_buf_;
  std::unique_ptr<nufft::fft::FftNd<float>> fft_fwd_, fft_inv_;
  std::unique_ptr<nufft::kernels::KernelLut> lut_;
  std::unique_ptr<nufft::kernels::KernelHorner> horner_;
  std::unique_ptr<nufft::exec::BatchNufft> batch_;
  std::unique_ptr<nufft::exec::NufftEngine> engine_;
  std::unique_ptr<ServeProbe> serve_;
  float sink_ = 0.0f;
};

/// Every per-layer metric, from a traced run's log. `op_parts` names the
/// already-reported layer metrics whose sum is the workload's op.parts_ms.
void report_layers(const LayerLog& log, const std::vector<std::string>& op_parts,
                   index_t samples, index_t grid_cells, Report& r);

}  // namespace bench_layers
