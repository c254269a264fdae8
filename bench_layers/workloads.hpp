// The benchmark's four workloads. Each runs in its own process:
//
//   apply3d_es       single-transform forward + adjoint pair, 3-D, ES/Horner
//   mri_cg3d         MultichannelRecon CG solves, 3-D radial, 8 coils, KB/LUT
//   stream2d_frames  update_samples + adjoint per frame, 2-D, ES/Horner
//   serve_loopback   two closed-loop NufftClients against an in-process
//                    NufftServer, 2-D radial, default config
//
// README.md says why each exists and which layers it is meant to move.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace bench_layers {

/// What one closed loop measured. A sample per measured op (mri: per
/// solve / 8), at reference speed and as measured.
struct LoopStats {
  std::vector<double> op_ms;
  std::vector<double> raw_op_ms;
  std::uint64_t ops = 0;  // completed ops
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;        // timed wall time; input generation and reference samples excluded
  double speed_wall_s = 0.0;  // the same at reference speed
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One cold set-up of what a user pays before the first op; returns its
  /// seconds. Called several times; the last set-up is the one that runs.
  virtual double setup() = 0;
  /// Untimed preparation after set-up (derived inputs, reference plans).
  virtual void prepare() = 0;
  /// Untimed ops: at least three, and at least one second of them.
  virtual void warmup() = 0;
  /// A closed loop of ops for `seconds`, sampling `ref` between slices.
  virtual LoopStats run(double seconds, Reference& ref) = 0;
  /// Traced variant: each iteration runs whole ops under bench spans, then
  /// the per-layer component pass, and commits its spans to `log`.
  virtual LoopStats run_traced(double seconds, Reference& ref, LayerLog& log) = 0;

  /// Relative L2 error of a forward against the exact NUDFT on a fixed
  /// sample subset, and the ceiling it must stay under.
  virtual double rel_err() = 0;
  virtual double rel_err_limit() const = 0;
  /// Workload-specific correctness checks on the final state.
  virtual void check(Report& r) = 0;

  /// Layer metrics whose sum is this workload's op.parts_ms.
  virtual std::vector<std::string> op_parts() const = 0;
  virtual index_t probe_samples() const = 0;
  virtual index_t probe_grid_cells() const = 0;
  virtual void describe(Report& r) const = 0;
};

/// The workload called `name`, or null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

/// Names of every workload, in the order the benchmark runs them.
const std::vector<std::string>& workload_names();

}  // namespace bench_layers
