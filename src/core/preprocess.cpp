#include "core/preprocess.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/preprocess_detail.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace nufft {

index_t privatization_threshold(index_t total_samples, int threads, int dim, double factor) {
  const double denom = static_cast<double>(threads) * std::pow(2.0, dim + 1);
  const auto t = static_cast<index_t>(factor * static_cast<double>(total_samples) / denom);
  return std::max<index_t>(t, 1);
}

namespace {

using detail::CellTables;
using detail::KeyIdx;
using detail::auto_partitions_per_dim;

}  // namespace

Preprocessed preprocess(const GridDesc& g, const datasets::SampleSet& samples,
                        const PlanConfig& cfg) {
  ThreadPool pool(cfg.threads);
  return preprocess(g, samples, cfg, pool);
}

Preprocessed preprocess(const GridDesc& g, const datasets::SampleSet& samples,
                        const PlanConfig& cfg, ThreadPool& pool) {
  NUFFT_CHECK(samples.dim == g.dim);
  NUFFT_CHECK(cfg.kernel_radius > 0.0);
  NUFFT_CHECK(cfg.threads >= 1);
  const int dim = g.dim;
  const index_t count = samples.count();
  const auto wceil = static_cast<index_t>(std::ceil(cfg.kernel_radius));
  const index_t min_width = 2 * wceil + 1;
  for (int d = 0; d < dim; ++d) {
    NUFFT_CHECK_MSG(g.m[static_cast<std::size_t>(d)] >= min_width,
                    "grid narrower than one kernel footprint");
  }

  Preprocessed pp;
  Timer total;
  pp.stats.threads_used = pool.size();
  pp.delta = std::make_unique<PlanDeltaState>();

  std::array<const float*, 3> cptr{nullptr, nullptr, nullptr};
  for (int d = 0; d < dim; ++d) cptr[static_cast<std::size_t>(d)] = samples.coords[static_cast<std::size_t>(d)].data();

  // Deterministic chunk decomposition for the counting-sort passes: the
  // result is chunking-invariant (each chunk writes exactly the slots the
  // serial stable sort would), so the chunk count may follow the pool width.
  const int nchunks =
      count == 0 ? 1 : static_cast<int>(std::min<index_t>(count, 4 * pool.size()));

  // --- partition layout (cumulative histograms + Fig. 5) ---
  Timer t;
  {
    obs::Span span("prep.partition", "prep", count);
    const int target = cfg.partitions_per_dim > 0 ? cfg.partitions_per_dim
                                                  : auto_partitions_per_dim(cfg.threads, dim);
    if (cfg.variable_partitions) {
      // Keep the per-cell counts behind the cumulative histograms: the
      // delta-update path patches them ±1 per moved sample and re-runs the
      // identical boundary walk to detect layout changes.
      std::array<std::vector<index_t>, 3> hists;
      for (int d = 0; d < dim; ++d) {
        const auto sd = static_cast<std::size_t>(d);
        hists[sd] = cumulative_histogram(cptr[sd], count, g.m[sd], &pool);
        auto& cc = pp.delta->cell_counts[sd];
        cc.resize(static_cast<std::size_t>(g.m[sd]));
        for (index_t i = 0; i < g.m[sd]; ++i) {
          cc[static_cast<std::size_t>(i)] = hists[sd][static_cast<std::size_t>(i) + 1] -
                                            hists[sd][static_cast<std::size_t>(i)];
        }
      }
      pp.layout = make_variable_layout_from_hists(dim, g.m, hists, count, target, min_width);
    } else {
      pp.layout = make_fixed_layout(dim, g.m, target, min_width);
    }
  }
  pp.stats.partition_s = t.seconds();

  // --- bin samples into tasks (parallel stable counting sort by task id) ---
  //
  // Pass A looks up each sample's task in the per-cell tables and counts task
  // ids per deterministic sample chunk; a column scan of the [chunk × task]
  // count matrix yields exact write cursors; pass B scatters each chunk in
  // sample order. Output: the serial counting sort's orig_index, bit for bit.
  t.reset();
  const int ntasks = pp.layout.total_parts();
  const CellTables tables(pp.layout, g.m, cfg.reorder, std::max<index_t>(1, cfg.reorder_tile));
  // The task assignment outlives the build inside the delta state — it is
  // exactly what an update must diff against.
  std::vector<std::int32_t>& task_of = pp.delta->task_of;
  task_of.resize(static_cast<std::size_t>(count));
  std::vector<index_t> offset(static_cast<std::size_t>(ntasks) + 1, 0);
  {
    obs::Span span("prep.bin", "prep", count);
    std::vector<index_t> cursors(static_cast<std::size_t>(nchunks) * static_cast<std::size_t>(ntasks),
                                 0);
    pool.for_static_chunks(count, nchunks, [&](int c, index_t begin, index_t end) {
      index_t* row = cursors.data() + static_cast<std::size_t>(c) * static_cast<std::size_t>(ntasks);
      for (index_t i = begin; i < end; ++i) {
        const std::int32_t tk = tables.task(cptr, i);
        task_of[static_cast<std::size_t>(i)] = tk;
        ++row[tk];
      }
    });
    for (int k = 0; k < ntasks; ++k) {
      index_t task_total = 0;
      for (int c = 0; c < nchunks; ++c) {
        task_total += cursors[static_cast<std::size_t>(c) * static_cast<std::size_t>(ntasks) +
                              static_cast<std::size_t>(k)];
      }
      offset[static_cast<std::size_t>(k) + 1] = offset[static_cast<std::size_t>(k)] + task_total;
    }
    pool.column_exclusive_scan(cursors, nchunks, ntasks, offset.data());
    pp.orig_index.resize(static_cast<std::size_t>(count));
    pool.for_static_chunks(count, nchunks, [&](int c, index_t begin, index_t end) {
      index_t* cur = cursors.data() + static_cast<std::size_t>(c) * static_cast<std::size_t>(ntasks);
      for (index_t i = begin; i < end; ++i) {
        pp.orig_index[static_cast<std::size_t>(cur[task_of[static_cast<std::size_t>(i)]]++)] = i;
      }
    });
  }
  pp.stats.bin_s = t.seconds();

  // --- per-task tile reorder for cache reuse (§III-D) ---
  //
  // Each task's run, idx-ascending from the bin pass, gets its keys from the
  // per-cell tables and is sorted into (key, idx) order. Without reorder the
  // bin order already is that order (every key is 0).
  t.reset();
  if (cfg.reorder && count > 0) {
    obs::Span span("prep.reorder", "prep", ntasks);
    const std::vector<int> order = detail::largest_first(offset);
    auto* base = pp.orig_index.data();
    std::atomic<int> next{0};
    pool.run_on_all([&](int) {
      std::vector<KeyIdx> buf;
      std::vector<KeyIdx> tmp;
      for (;;) {
        const int j = next.fetch_add(1, std::memory_order_relaxed);
        if (j >= ntasks) break;
        const int k = order[static_cast<std::size_t>(j)];
        const index_t begin = offset[static_cast<std::size_t>(k)];
        const index_t n = offset[static_cast<std::size_t>(k) + 1] - begin;
        if (n < 2) continue;
        buf.resize(static_cast<std::size_t>(n));
        tmp.resize(static_cast<std::size_t>(n));
        for (index_t i = 0; i < n; ++i) {
          const index_t idx = base[begin + i];
          buf[static_cast<std::size_t>(i)] = {tables.key(cptr, idx), idx};
        }
        detail::sort_task(buf.data(), tmp.data(), n, tables.total_key_bits());
        for (index_t i = 0; i < n; ++i) base[begin + i] = buf[static_cast<std::size_t>(i)].idx;
      }
    });
  }
  pp.stats.reorder_s = t.seconds();

  // --- materialize reordered coordinate arrays (parallel gather) ---
  t.reset();
  {
    obs::Span span("prep.gather", "prep", count);
    for (int d = 0; d < dim; ++d) {
      pp.coords[static_cast<std::size_t>(d)].resize(static_cast<std::size_t>(count));
    }
    pool.parallel_for(count, [&](index_t begin, index_t end) {
      for (index_t i = begin; i < end; ++i) {
        const index_t orig = pp.orig_index[static_cast<std::size_t>(i)];
        for (int d = 0; d < dim; ++d) {
          const auto sd = static_cast<std::size_t>(d);
          pp.coords[sd][static_cast<std::size_t>(i)] = cptr[sd][orig];
        }
      }
    });
  }
  pp.stats.gather_s = t.seconds();

  // Original-order coordinate snapshot for the delta path's sequential diff.
  for (int d = 0; d < dim; ++d) {
    const auto sd = static_cast<std::size_t>(d);
    pp.delta->prev_coords[sd].assign(cptr[sd], cptr[sd] + count);
  }

  // --- task table, weights, privatization ---
  t.reset();
  pp.graph = std::make_unique<TaskGraph>(pp.layout);
  pp.tasks.resize(static_cast<std::size_t>(ntasks));
  pp.weights.resize(static_cast<std::size_t>(ntasks));
  pp.privatized.assign(static_cast<std::size_t>(ntasks), 0);
  pp.privatization_threshold =
      privatization_threshold(count, cfg.threads, dim, cfg.privatization_factor);
  pool.parallel_for(ntasks, [&](index_t kb, index_t ke) {
    for (index_t ki = kb; ki < ke; ++ki) {
      const int k = static_cast<int>(ki);
      ConvTask& task = pp.tasks[static_cast<std::size_t>(k)];
      task.begin = offset[static_cast<std::size_t>(k)];
      task.end = offset[static_cast<std::size_t>(k) + 1];
      pp.weights[static_cast<std::size_t>(k)] = task.count();
      const TaskNode& node = pp.graph->node(k);
      for (int d = 0; d < dim; ++d) {
        const auto& b = pp.layout.bounds[static_cast<std::size_t>(d)];
        const auto pcd = static_cast<std::size_t>(node.pcoord[static_cast<std::size_t>(d)]);
        task.box_lo[static_cast<std::size_t>(d)] = b[pcd] - wceil;
        task.box_hi[static_cast<std::size_t>(d)] = b[pcd + 1] + wceil;
      }
      if (cfg.selective_privatization && task.count() > pp.privatization_threshold &&
          cfg.threads > 1) {
        pp.privatized[static_cast<std::size_t>(k)] = 1;
      }
    }
  });
  pp.stats.graph_s = t.seconds();

  pp.stats.tasks = ntasks;
  pp.stats.privatized_tasks =
      static_cast<int>(std::count(pp.privatized.begin(), pp.privatized.end(), char(1)));
  pp.stats.total_s = total.seconds();
  obs::observe_ns("prep_total_ns", static_cast<std::uint64_t>(pp.stats.total_s * 1e9));
  return pp;
}

}  // namespace nufft
