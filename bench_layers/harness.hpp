// Shared pieces of the layered benchmark: command line, bench spans,
// quantiles, the host-speed reference, trajectory jitter and the result
// report.
//
// Every number this benchmark reports is timed from outside the library:
// the bench wraps calls into public entry points in its own spans
// (category "bench", recorded with obs::record_span) and aggregates those.
// Library tracing stays off, so traced and untraced runs execute the same
// library code.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "datasets/trajectory.hpp"
#include "obs/trace.hpp"

namespace bench_layers {

using nufft::cdouble;
using nufft::cfloat;
using nufft::cvecf;
using nufft::index_t;

/// Width of every compute pool the benchmark creates. Fixed, never derived
/// from the machine's core count, so results from different hosts compare.
constexpr int kPoolThreads = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string out;           // detailed JSON report; empty = none
  std::string chrome_trace;  // Chrome trace of the bench spans; empty = none
};

/// Parses `--workload W --seed S --seconds T --trace 0|1 [--out F]
/// [--chrome-trace F]`. Throws std::invalid_argument on bad input.
Args parse_args(int argc, char** argv);

/// Runs fn() inside a bench span and returns its duration in seconds.
template <class F>
double timed_span(const char* name, F&& fn) {
  const std::uint64_t t0 = nufft::now_ns();
  fn();
  const std::uint64_t t1 = nufft::now_ns();
  nufft::obs::record_span(name, "bench", t0, t1);
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// Runs fn() and returns its duration in seconds, recording nothing.
template <class F>
double timed(F&& fn) {
  const std::uint64_t t0 = nufft::now_ns();
  fn();
  return static_cast<double>(nufft::now_ns() - t0) * 1e-9;
}

/// Linearly interpolated q-quantile (numpy's default); NaN when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double mean(const std::vector<double>& v);

/// Host-speed reference. The benchmark shares its host with other tenants,
/// whose load moves every wall-clock time by tens of percent within
/// minutes. measure_ms() runs a fixed compute kernel (a polynomial over an
/// L1-resident block, about a millisecond) on kPoolThreads threads at once
/// and returns its wall time. Compute only, so its time does not depend on
/// what the workload left in the caches. The kernel and its threads are the
/// benchmark's own, independent of the library, so a library change cannot
/// move it. Timings are reported at reference speed:
///   t × kRefNominalMs / (reference time measured around t).
class Reference {
 public:
  Reference();
  ~Reference();

  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;

  double measure_ms();
  /// Every measurement so far, in ms.
  const std::vector<double>& samples() const { return samples_; }

 private:
  void kernel(int lane);
  void helper_main();

  volatile float seed_ = 1e-3f;          // read at run time: the kernel cannot be folded
  volatile float sink_[kPoolThreads] = {};  // written: the kernel cannot be dropped
  std::vector<double> samples_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t go_ = 0;    // rounds requested, guarded by mu_
  std::uint64_t done_ = 0;  // rounds the helper finished, guarded by mu_
  bool stop_ = false;
  std::thread helper_;  // declared last: starts after the state it uses
};

/// Reference-kernel time that defines "reference speed", in ms. A fixed
/// convention (about the kernel's time on the 4-core host the baselines
/// were measured on), never tuned per run.
constexpr double kRefNominalMs = 1.0;

/// Speed factor for a stretch of time bracketed by two reference samples.
inline double speed_factor(double ref_before_ms, double ref_after_ms) {
  return 2.0 * kRefNominalMs / (ref_before_ms + ref_after_ms);
}

/// Bench spans and per-iteration values of a traced run, at reference
/// speed. Spans and ms values gathered during one iteration are filed by
/// commit() with that iteration's speed factor; commit also drains the obs
/// rings, which hold 16Ki events per thread and overwrite the oldest.
class LayerLog {
 public:
  /// A time in ms, scaled by the factor of the next commit().
  void add_ms(const std::string& name, double ms) { pending_ms_.emplace_back(name, ms); }
  /// A count or ratio, stored as is.
  void add(const std::string& name, double value) { values_[name].push_back(value); }
  void commit(double speed);

  /// Durations of every committed bench span called `name`, ms at reference speed.
  const std::vector<double>& span_ms(const std::string& name) const;
  double median_ms(const std::string& name) const { return median(span_ms(name)); }
  const std::vector<double>& values(const std::string& name) const;

  /// The raw spans, for the Chrome trace.
  const std::vector<nufft::obs::SpanEvent>& events() const { return events_; }

 private:
  std::vector<nufft::obs::SpanEvent> events_;
  std::map<std::string, std::vector<double>> spans_;
  std::map<std::string, std::vector<double>> values_;
  std::vector<std::pair<std::string, double>> pending_ms_;
};

/// One frame of trajectory drift: a copy of `prev` in which each sample
/// moves, with probability `fraction`, to its `base` position plus a jitter
/// below a quarter cell per axis. Positions stay within half a cell of the
/// base, so frames are stationary and consecutive frames differ by less than
/// half a cell in roughly `fraction` of the samples.
nufft::datasets::SampleSet jitter(const nufft::datasets::SampleSet& base,
                                  const nufft::datasets::SampleSet& prev, double fraction,
                                  nufft::Rng& rng);

/// Uniform random complex values in [-1, 1)².
cvecf random_values(index_t n, nufft::Rng& rng);

/// ‖a − ref‖ / ‖ref‖ over n values.
double rel_l2(const cfloat* a, const cdouble* ref, index_t n);

/// True when the two arrays are bitwise identical.
bool bit_identical(const cfloat* a, const cfloat* b, index_t n);

/// Peak resident set of this process (getrusage ru_maxrss), MiB.
double peak_rss_mb();

/// Confines the calling thread, and every thread it starts later, to
/// kPoolThreads CPUs: the highest-numbered ones it may run on. Call first in
/// main. The compute threads and the Reference then share the same CPUs, so
/// a reference sample sees the contention the ops see, and the process
/// never computes on more than kPoolThreads CPUs. Returns the CPU list
/// ("2,3"), or "unpinned" when the affinity calls fail.
std::string pin_to_cpus();

/// Metrics, checks and context of one run; writes the one-line JSON result
/// and the self-describing detail report.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 0);
  void check(const std::string& name, bool ok, double value, double limit);
  void context(const std::string& key, const std::string& value);
  void context(const std::string& key, double value);
  void ops(std::uint64_t attempted, std::uint64_t failed);

  bool correct() const;
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}} on one line.
  std::string result_line() const;
  /// Everything: context, metrics with sample counts, checks.
  std::string detail_json() const;
  /// Human-readable check list for stderr.
  std::string check_summary() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
  };
  struct Check {
    std::string name;
    bool ok;
    double value;
    double limit;
  };
  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
  std::vector<std::pair<std::string, std::string>> context_;  // JSON-encoded values
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace bench_layers
