#include "parallel/thread_pool.hpp"

#include <algorithm>

#include "common/env.hpp"
#include "common/error.hpp"

namespace nufft {

ThreadPool::ThreadPool(int nthreads) : nthreads_(std::max(1, nthreads)) {
  workers_.reserve(static_cast<std::size_t>(nthreads_ - 1));
  for (int tid = 1; tid < nthreads_; ++tid) {
    workers_.emplace_back([this, tid] { worker_loop(tid); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_on_all(const std::function<void(int)>& fn) {
  if (nthreads_ == 1) {
    fn(0);
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (in_job_) {
      // Nested (from inside a job body) or concurrent invocation: the workers
      // are already owned by another job, so degrade to serial on the caller.
      lock.unlock();
      fn(0);
      return;
    }
    in_job_ = true;
    job_ = &fn;
    remaining_ = nthreads_ - 1;
    ++generation_;
  }
  cv_start_.notify_all();
  fn(0);  // The caller participates as context 0.
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return remaining_ == 0; });
  job_ = nullptr;
  in_job_ = false;
}

void ThreadPool::worker_loop(int tid) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
      job = job_;
    }
    (*job)(tid);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--remaining_ == 0) cv_done_.notify_one();
    }
  }
}

void ThreadPool::parallel_for(index_t n, index_t chunk,
                              const std::function<void(index_t, index_t)>& fn) {
  if (n <= 0) return;
  NUFFT_CHECK(chunk > 0);
  if (nthreads_ == 1 || n <= chunk) {
    fn(0, n);
    return;
  }
  std::atomic<index_t> next{0};
  run_on_all([&](int) {
    for (;;) {
      const index_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) break;
      fn(begin, std::min(begin + chunk, n));
    }
  });
}

void ThreadPool::parallel_for_tid(index_t n, index_t chunk,
                                  const std::function<void(int, index_t, index_t)>& fn) {
  if (n <= 0) return;
  NUFFT_CHECK(chunk > 0);
  if (nthreads_ == 1 || n <= chunk) {
    fn(0, 0, n);
    return;
  }
  std::atomic<index_t> next{0};
  run_on_all([&](int tid) {
    for (;;) {
      const index_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) break;
      fn(tid, begin, std::min(begin + chunk, n));
    }
  });
}

void ThreadPool::for_each_slice(index_t nb,
                                const std::function<void(int, index_t, ThreadPool&)>& fn) {
  const index_t whole = nthreads_ == 1 ? 0 : nb / nthreads_ * nthreads_;
  if (whole > 0) {
    // Dynamic, so a run_on_all degraded to the caller alone still runs all.
    std::atomic<index_t> next{0};
    run_on_all([&](int ctx) {
      ThreadPool inline_pool(1);
      for (index_t b; (b = next.fetch_add(1, std::memory_order_relaxed)) < whole;) {
        fn(ctx, b, inline_pool);
      }
    });
  }
  for (index_t b = whole; b < nb; ++b) fn(0, b, *this);
}

void ThreadPool::for_static_chunks(index_t n, int nchunks,
                                   const std::function<void(int, index_t, index_t)>& fn) {
  if (n <= 0) return;
  NUFFT_CHECK(nchunks >= 1);
  const auto bound = [n, nchunks](int c) {
    return static_cast<index_t>(static_cast<std::int64_t>(n) * c / nchunks);
  };
  if (nthreads_ == 1 || nchunks == 1) {
    for (int c = 0; c < nchunks; ++c) {
      const index_t begin = bound(c);
      const index_t end = bound(c + 1);
      if (begin < end) fn(c, begin, end);
    }
    return;
  }
  std::atomic<int> next{0};
  run_on_all([&](int) {
    for (;;) {
      const int c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= nchunks) break;
      const index_t begin = bound(c);
      const index_t end = bound(c + 1);
      if (begin < end) fn(c, begin, end);
    }
  });
}

void ThreadPool::column_exclusive_scan(std::vector<index_t>& m, int nchunks, index_t ncols,
                                       const index_t* base) {
  NUFFT_CHECK(nchunks >= 1 && ncols >= 0);
  NUFFT_CHECK(static_cast<index_t>(m.size()) >= static_cast<index_t>(nchunks) * ncols);
  parallel_for(ncols, std::max<index_t>(1, ncols / (static_cast<index_t>(nthreads_) * 8)),
               [&](index_t begin, index_t end) {
                 for (index_t j = begin; j < end; ++j) {
                   index_t running = base[j];
                   for (int c = 0; c < nchunks; ++c) {
                     auto& cell = m[static_cast<std::size_t>(c) * static_cast<std::size_t>(ncols) +
                                    static_cast<std::size_t>(j)];
                     const index_t v = cell;
                     cell = running;
                     running += v;
                   }
                 }
               });
}

void ThreadPool::parallel_for(index_t n, const std::function<void(index_t, index_t)>& fn) {
  // ~8 chunks per context keeps dynamic scheduling cheap yet balanced.
  const index_t chunk = std::max<index_t>(1, n / (static_cast<index_t>(nthreads_) * 8));
  parallel_for(n, chunk, fn);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(bench_threads());
  return pool;
}

}  // namespace nufft
