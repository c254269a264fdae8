// Async transform execution: submit forward/adjoint jobs against shared
// plans and collect results through futures.
//
// The engine is the consumer of the workspace-lease model (core/nufft.hpp):
// worker threads lease a per-job Workspace of capacity ≥ min(batch,
// kMaxBatch) from one per-plan free list and make one apply call through the
// plan's driver for every batch size, so any number of in-flight jobs may
// target the *same* plan concurrently — the plan itself is only read. Each
// worker owns a private ThreadPool (run_on_all does not nest), sized by
// EngineConfig::threads_per_worker; total concurrency is
// workers × threads_per_worker execution contexts.
//
// Determinism: a job's result depends only on (op, plan, inputs) — leases
// recycle buffers but every apply fully overwrites or zero-initializes
// them — so concurrent submissions produce results identical to running the
// same jobs sequentially (bitwise, when each worker pool has one thread;
// see tests/test_exec.cpp).
//
// Plans submitted by shared_ptr are pinned by the engine's lease pools,
// keeping leased buffers shape-compatible with a live plan. A pool whose pin
// has become its plan's only owner (a version every caller and registry has
// dropped) is released at the next lease, so a stream of plan versions does
// not accumulate in the engine. The registry overload resolves (and possibly builds)
// the plan inside the worker, making plan construction itself asynchronous.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/nufft.hpp"
#include "core/stats.hpp"
#include "exec/plan_registry.hpp"

namespace nufft::exec {

enum class Op { kForward, kAdjoint };

/// Per-job instrumentation, delivered through the future.
struct JobResult {
  OperatorStats stats;
  std::vector<TraceEvent> trace;
};

/// Cooperative cancellation handle shared between a submitter and any number
/// of in-flight jobs. Cancellation is checked before dispatch and between
/// retry attempts — a job already inside an apply runs to completion (applies
/// are short relative to queue residence and have no safe interior abort
/// point), but its result is discarded in favour of ErrorCode::kCancelled
/// only if the cancel happened before dispatch.
class CancelToken {
 public:
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const noexcept { return cancelled_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Failure-handling policy for one submitted job.
struct JobOptions {
  /// Optional cancellation handle; null means not cancellable.
  std::shared_ptr<CancelToken> cancel;
  /// Wall-clock budget measured from submission. Negative (default) means no
  /// deadline; zero means the deadline is already expired when the job is
  /// dispatched, which resolves the future with ErrorCode::kTimeout
  /// deterministically (useful for testing the timeout path).
  std::chrono::milliseconds timeout{-1};
  /// Bounded retry for retryable failures (is_retryable(): resource
  /// exhaustion, I/O corruption; std::bad_alloc counts as resource
  /// exhaustion). Deterministic failures are never retried.
  int max_retries = 0;
  /// First retry delay; doubles per attempt (capped internally). The sleep
  /// is cancellation- and deadline-aware.
  std::chrono::milliseconds retry_backoff{1};
  /// Completion hook for callers that multiplex many jobs without parking a
  /// thread per future (the serving layer's poll loop). Invoked exactly once,
  /// after the job's promise is resolved — with a value or an exception, on
  /// every path including rejection at submit-after-shutdown — from whichever
  /// thread resolved it. The future is guaranteed ready inside the hook. Must
  /// not throw; must not call back into the engine's shutdown.
  std::function<void()> on_complete;
  /// Anything the apply reads or writes that the submitter might free once
  /// the future resolves. The watchdog resolves stalled jobs kTimeout while
  /// the wedged apply is still running — without a keepalive the submitter
  /// would free `in`/`out` under the apply's feet. The engine holds this
  /// reference until the apply truly returns (or forever, for a job that
  /// never does), not merely until the future is ready.
  std::shared_ptr<void> keepalive;
};

struct EngineConfig {
  int workers = 2;             // dispatcher threads, each owning a pool
  int threads_per_worker = 1;  // ThreadPool size inside each worker
  /// Watchdog stall threshold: a dispatched job whose execution heartbeat
  /// (stamped at dispatch, plan resolution and every retry/backoff boundary —
  /// NOT inside an apply) is older than this is presumed hung. The watchdog
  /// resolves its future with ErrorCode::kTimeout, quarantines the plan in
  /// `watchdog_registry` (when set), fires on_complete, and spawns a
  /// replacement worker so engine capacity survives the wedged thread. Must
  /// exceed the worst-case plan-resolution + single-apply latency. Negative
  /// (default) disables the watchdog entirely — no thread is started.
  std::chrono::milliseconds stall_threshold{-1};
  /// Watchdog scan period; <= 0 derives stall_threshold / 4, clamped to
  /// [5 ms, 500 ms].
  std::chrono::milliseconds watchdog_poll{0};
  /// Registry whose entry for a stalled job's plan should be quarantined
  /// (subsequent acquires fail fast kUnavailable for the registry's backoff
  /// window). Null: stalls time out without quarantine. Must outlive the
  /// engine.
  PlanRegistry* watchdog_registry = nullptr;
};

/// Watchdog activity counters (monotonic since construction).
struct WatchdogStats {
  std::uint64_t stalls = 0;            // jobs claimed kTimeout by the watchdog
  std::uint64_t quarantines = 0;       // stalled plans quarantined in the registry
  std::uint64_t replacements = 0;      // workers spawned to cover wedged ones
  std::uint64_t late_completions = 0;  // claimed jobs whose apply later returned
};

/// Point-in-time load snapshot, the admission-control hook for callers that
/// gate work before it reaches the queue (serve::NufftServer).
struct EngineLoad {
  std::size_t queued = 0;  // jobs waiting for a worker
  int active = 0;          // jobs currently executing
  int workers = 0;         // dispatcher thread count
};

class NufftEngine {
 public:
  explicit NufftEngine(EngineConfig cfg = {});
  ~NufftEngine();  // drains the queue, then joins the workers

  NufftEngine(const NufftEngine&) = delete;
  NufftEngine& operator=(const NufftEngine&) = delete;

  /// Enqueue one transform. For batch == 1, `in`/`out` are single arrays;
  /// for batch > 1 they are contiguous batches (slice b at
  /// in + b·image_elems() / sample_count() as appropriate for `op`). The
  /// buffers must stay valid until the future resolves. Submitting after
  /// shutdown() is not an error: the returned future is already resolved
  /// with an Error carrying ErrorCode::kCancelled.
  std::future<JobResult> submit(Op op, std::shared_ptr<const Nufft> plan, const cfloat* in,
                                cfloat* out, index_t batch = 1, const JobOptions& opts = {});

  /// As above, but the plan is acquired from `registry` inside the worker —
  /// submission never blocks on plan construction. The registry, sample set
  /// and buffers must outlive the future.
  std::future<JobResult> submit(Op op, PlanRegistry& registry, const GridDesc& g,
                                std::shared_ptr<const datasets::SampleSet> samples,
                                const PlanConfig& cfg, const cfloat* in, cfloat* out,
                                index_t batch = 1, const JobOptions& opts = {});

  /// Enqueue a streaming trajectory update: a worker runs
  /// PlanRegistry::update_plan(g, old_key, *new_samples, cfg, tenant) —
  /// warm delta derivation when the old plan is resident, content-hash
  /// no-op short-circuit, cold fallback otherwise — without applying a
  /// transform. The full PlanUpdateResult is written to *result (when
  /// non-null) before the future resolves, so the caller can rebind its
  /// handle to the new key. Plan-update work shares the job machinery:
  /// queue admission, deadline, retry, watchdog heartbeat during the
  /// (possibly expensive) rebuild. The registry, sample set and result
  /// must outlive the future.
  std::future<JobResult> submit_update(PlanRegistry& registry, const GridDesc& g,
                                       std::string old_key,
                                       std::shared_ptr<const datasets::SampleSet> new_samples,
                                       const PlanConfig& cfg,
                                       std::shared_ptr<PlanUpdateResult> result,
                                       const std::string& tenant = std::string(),
                                       const JobOptions& opts = {});

  /// Block until every submitted job has completed.
  void wait_idle();

  /// Stop accepting work, drain jobs already queued, and join the workers.
  /// Idempotent and safe to call from any number of threads concurrently —
  /// the join runs exactly once and every caller blocks until the drain is
  /// complete. The destructor calls it. Safe to race with concurrent
  /// submit() calls — each such submit either runs before the drain or gets
  /// a future resolved with ErrorCode::kCancelled.
  void shutdown();

  /// Queue/active snapshot for admission control.
  EngineLoad load() const;

  /// Watchdog counters; all-zero when the watchdog is disabled.
  WatchdogStats watchdog_stats() const;

  int workers() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(threads_.size());
  }

 private:
  struct Job {
    Op op;
    std::function<std::shared_ptr<const Nufft>()> resolve_plan;
    const cfloat* in = nullptr;
    cfloat* out = nullptr;
    index_t batch = 1;
    // Plan-update jobs: resolve_plan does all the work (registry update /
    // derivation); no workspace is leased and no transform runs.
    bool plan_only = false;
    JobOptions options;
    // Deadline stamped at submission time from options.timeout.
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    // Submission instant, feeding the engine.queue_wait_ns histogram.
    std::chrono::steady_clock::time_point submitted{};
    std::promise<JobResult> promise;
  };

  // Per-plan free list of leased workspaces (any capacity). `pin` keeps the
  // plan alive while leased buffers exist, so a recycled pointer can never
  // alias a different plan.
  struct LeasePool {
    std::shared_ptr<const Nufft> pin;
    std::vector<std::unique_ptr<Workspace>> workspaces;
  };

  // One dispatched job's shared state between its worker and the watchdog.
  // `claimed` arbitrates promise resolution: whoever flips it false→true owns
  // set_value/set_exception and the on_complete call; the loser only observes.
  // The record (and options.keepalive with it) lives in running_ until the
  // apply returns, so buffers a watchdog-resolved submitter freed early stay
  // valid under the wedged apply.
  struct Running {
    std::atomic<bool> claimed{false};
    std::atomic<std::int64_t> last_beat_ns{0};  // steady_clock since-epoch ns
    std::promise<JobResult> promise;
    JobOptions options;
    std::shared_ptr<const Nufft> plan;  // published under wd_mu_ once resolved
  };

  std::future<JobResult> enqueue(Job job);
  void worker_main();
  void watchdog_main();
  // Cancellation / deadline / bounded-retry wrapper around run_job.
  JobResult dispatch_job(Job& job, ThreadPool& pool, Running& rec);
  JobResult run_job(Job& job, ThreadPool& pool, Running& rec);

  // Under lease_mu_: the pool for `plan`, pinned on first use. Moves every
  // pool whose pin is its plan's only owner into `released`.
  LeasePool& pool_for(const std::shared_ptr<const Nufft>& plan, std::vector<LeasePool>& released);
  // A pooled workspace with capacity ≥ min(batch, kMaxBatch), or a fresh one
  // of exactly that capacity.
  std::unique_ptr<Workspace> lease_workspace(const std::shared_ptr<const Nufft>& plan,
                                             index_t batch);
  void return_workspace(const Nufft* plan, std::unique_ptr<Workspace> ws);

  EngineConfig cfg_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<Job> queue_;
  int active_ = 0;
  bool stop_ = false;
  // Joining a std::thread from two threads at once is a data race, and both
  // "destructor while another thread calls shutdown()" and plain concurrent
  // shutdown() calls are legal — the once_flag makes the join single-entry
  // while still blocking every concurrent caller until the drain finishes.
  // threads_ grows when the watchdog spawns replacement workers; every
  // mutation happens under mu_ with stop_ false, and shutdown joins the
  // watchdog before iterating threads_, so the join loop sees a stable
  // vector without holding mu_ (workers need mu_ to finish draining).
  std::once_flag join_once_;
  std::vector<std::thread> threads_;
  std::thread watchdog_;

  // Watchdog state: the set of dispatched-but-unfinished jobs. Workers
  // insert/erase around dispatch; the watchdog scans for stale heartbeats.
  mutable std::mutex wd_mu_;
  std::condition_variable wd_cv_;
  bool wd_stop_ = false;
  std::vector<std::shared_ptr<Running>> running_;
  std::atomic<std::uint64_t> wd_stalls_{0};
  std::atomic<std::uint64_t> wd_quarantines_{0};
  std::atomic<std::uint64_t> wd_replacements_{0};
  std::atomic<std::uint64_t> wd_late_{0};

  std::mutex lease_mu_;
  std::map<const Nufft*, LeasePool> leases_;
};

}  // namespace nufft::exec
