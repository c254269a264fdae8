// Delta preprocessing for dynamic trajectories (DESIGN.md §15).
//
// A frame-to-frame trajectory update usually moves a small fraction of the
// samples; the plan's partition layout, task graph and the vast majority of
// its per-task sample ranges survive unchanged. update_preprocessed() runs
// the cold pipeline's passes restricted to the moved samples:
//  * diff: one parallel pass over deterministic sample chunks finds the
//    bitwise-moved samples, looks up each one's new task in the per-cell
//    tables and counts arrivals and departures per [chunk × task] — the cold
//    bin pass's cursor matrix;
//  * rebin: a column scan of the arrival counts gives exact cursors, and a
//    parallel scatter writes one flat arrivals array segmented by task;
//  * merge: each dirty task sorts its arrivals and merges them into its
//    retained run in one pass; clean tasks are block-copied at their
//    (possibly shifted) new offsets;
//  * publish: swap in the new arrays and commit the delta bookkeeping.
//
// Bit-identity argument, stage by stage:
//  * moved = bitwise coordinate inequality, so an unmoved sample's gathered
//    coordinate bytes are exactly what a cold gather would write (a -0.0 →
//    +0.0 flip counts as moved; `==` would miss it);
//  * the per-cell histogram counts are integers patched ±1 per moved sample
//    using the cold pass's exact cell formula, so the re-run boundary walk
//    (make_variable_layout_from_hists — the same function the cold build
//    calls) sees the same cumulative counts a cold histogram would produce;
//    any boundary difference falls back to a rebuild, so a kWarm result
//    always has the cold layout;
//  * task membership and reorder keys come from the same per-cell tables the
//    cold build reads (detail::CellTables);
//  * within a task the reordered position is the (reorder key, original
//    index) total order — algorithm-independent. Every moved sample is
//    treated as departed + arrived, so a dirty task's retained members have
//    bitwise-unchanged coordinates — hence unchanged keys, recomputed from
//    those coordinates — and their old order is already sorted. The
//    arrivals come out of the chunk-ordered scatter idx-ascending, which is
//    what the shared radix sort needs; merging the two sorted runs
//    reproduces the cold sort's permutation exactly. A clean task's old
//    order (same members, same keys) is already correct as a block.
//
// Commit order: nothing the plan or its delta state holds is written until
// every allocation has succeeded. The patched cell counts live in a copy,
// the new arrays in the scratch buffers, and the publish step swaps them in
// and writes task_of / prev_coords — so a throwing update leaves the plan
// and its bookkeeping describing the previous frame.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/timer.hpp"
#include "core/preprocess.hpp"
#include "core/preprocess_detail.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/partitioner.hpp"
#include "parallel/thread_pool.hpp"

namespace nufft {

namespace {

using detail::CellTables;

// Restored plans (plan-cache blobs) carry no delta state; everything it
// holds is recoverable from the plan itself. task_of inverts the per-task
// sample ranges; the cell counts re-run the histogram on the *reordered*
// coordinates — integer counts are order-invariant, so they equal the cold
// pass's histogram of the original order. Built aside and handed back whole,
// so a throw leaves the plan without delta state rather than with half of
// one.
std::unique_ptr<PlanDeltaState> rebuild_delta_state(const Preprocessed& pp, const GridDesc& g,
                                                    const PlanConfig& cfg, ThreadPool& pool) {
  auto state = std::make_unique<PlanDeltaState>();
  PlanDeltaState& ds = *state;
  const auto count = static_cast<index_t>(pp.orig_index.size());
  const int ntasks = static_cast<int>(pp.tasks.size());
  ds.task_of.resize(static_cast<std::size_t>(count));
  pool.parallel_for(ntasks, [&](index_t kb, index_t ke) {
    for (index_t ki = kb; ki < ke; ++ki) {
      const auto k = static_cast<std::int32_t>(ki);
      const ConvTask& task = pp.tasks[static_cast<std::size_t>(ki)];
      for (index_t pos = task.begin; pos < task.end; ++pos) {
        ds.task_of[static_cast<std::size_t>(pp.orig_index[static_cast<std::size_t>(pos)])] = k;
      }
    }
  });
  if (cfg.variable_partitions) {
    for (int d = 0; d < g.dim; ++d) {
      const auto sd = static_cast<std::size_t>(d);
      const auto hist = cumulative_histogram(pp.coords[sd].data(), count, g.m[sd], &pool);
      auto& cc = ds.cell_counts[sd];
      cc.resize(static_cast<std::size_t>(g.m[sd]));
      for (index_t i = 0; i < g.m[sd]; ++i) {
        cc[static_cast<std::size_t>(i)] =
            hist[static_cast<std::size_t>(i) + 1] - hist[static_cast<std::size_t>(i)];
      }
    }
  }
  // Original-order snapshot: scatter the reordered coordinates back through
  // orig_index.
  for (int d = 0; d < g.dim; ++d) {
    ds.prev_coords[static_cast<std::size_t>(d)].resize(static_cast<std::size_t>(count));
  }
  pool.parallel_for(count, [&](index_t begin, index_t end) {
    for (index_t pos = begin; pos < end; ++pos) {
      const index_t orig = pp.orig_index[static_cast<std::size_t>(pos)];
      for (int d = 0; d < g.dim; ++d) {
        const auto sd = static_cast<std::size_t>(d);
        ds.prev_coords[sd][static_cast<std::size_t>(orig)] = pp.coords[sd][static_cast<std::size_t>(pos)];
      }
    }
  });
  return state;
}

// One moved sample as the diff pass records it: its original index and the
// task it now belongs to.
struct Moved {
  index_t orig;
  std::int32_t task;
};

// One arrival as the merge consumes it: its (key, idx) sort record plus its
// new coordinates. The scatter copies the coordinates while it streams the
// chunk in sample order, and they travel through the sort with the record,
// so the merge never reads the new coordinate arrays at random.
struct Arrival {
  std::uint64_t key;
  index_t idx;
  std::array<float, 3> x;
};

inline bool bits_differ(float a, float b) {
  std::uint32_t ab = 0;
  std::uint32_t bb = 0;
  std::memcpy(&ab, &a, sizeof(float));
  std::memcpy(&bb, &b, sizeof(float));
  return ab != bb;
}

}  // namespace

Preprocessed clone_preprocessed(const Preprocessed& src) {
  Preprocessed out;
  out.layout = src.layout;
  if (src.graph != nullptr) out.graph = std::make_unique<TaskGraph>(out.layout);
  out.tasks = src.tasks;
  out.weights = src.weights;
  out.privatized = src.privatized;
  out.privatization_threshold = src.privatization_threshold;
  out.coords = src.coords;
  out.orig_index = src.orig_index;
  if (src.delta != nullptr) {
    out.delta = std::make_unique<PlanDeltaState>();
    out.delta->task_of = src.delta->task_of;
    out.delta->cell_counts = src.delta->cell_counts;
    out.delta->prev_coords = src.delta->prev_coords;
  }
  out.stats = src.stats;
  return out;
}

UpdatePath update_preprocessed(Preprocessed& pp, const GridDesc& g,
                               const datasets::SampleSet& new_samples, const PlanConfig& cfg,
                               ThreadPool& pool, const UpdateOptions& opts) {
  Timer total;
  obs::Span span("prep.update", "prep", new_samples.count());
  const int dim = g.dim;
  const index_t count = new_samples.count();

  const auto rebuild = [&]() {
    pp = preprocess(g, new_samples, cfg, pool);
    obs::count("nufft.plan.update_fallbacks");
    return UpdatePath::kRebuild;
  };

  // A changed sample count changes every downstream offset and the
  // privatization threshold — nothing worth diffing survives.
  if (new_samples.dim != dim || count != static_cast<index_t>(pp.orig_index.size())) {
    return rebuild();
  }
  if (count == 0) {
    obs::count("nufft.plan.update_noops");
    return UpdatePath::kNoop;
  }
  if (pp.delta == nullptr) pp.delta = rebuild_delta_state(pp, g, cfg, pool);
  PlanDeltaState& ds = *pp.delta;

  std::array<const float*, 3> nptr{nullptr, nullptr, nullptr};
  std::array<const float*, 3> prev{nullptr, nullptr, nullptr};
  for (int d = 0; d < dim; ++d) {
    const auto sd = static_cast<std::size_t>(d);
    nptr[sd] = new_samples.coords[sd].data();
    prev[sd] = ds.prev_coords[sd].data();
  }
  const int ntasks = static_cast<int>(pp.tasks.size());
  const auto nt_sz = static_cast<std::size_t>(ntasks);
  const CellTables tables(pp.layout, g.m, cfg.reorder, std::max<index_t>(1, cfg.reorder_tile));

  // --- diff and locate: one parallel pass over deterministic chunks. Both
  // sides are in original sample order (delta keeps prev_coords exactly for
  // this), so the pass streams contiguous arrays instead of chasing
  // orig_index indirections through the reordered copy. Per chunk it records
  // the moved samples (orig-ascending) with their new tasks, and the
  // [chunk × task] arrival and departure counts. ---
  const std::uint64_t diff_t0 = obs::trace_enabled() ? now_ns() : 0;
  const int nchunks = static_cast<int>(std::min<index_t>(count, 4 * pool.size()));
  std::vector<std::vector<Moved>> moved(static_cast<std::size_t>(nchunks));
  std::vector<index_t> arrive(static_cast<std::size_t>(nchunks) * nt_sz, 0);
  std::vector<index_t> depart(static_cast<std::size_t>(nchunks) * nt_sz, 0);
  std::vector<index_t> chunk_rebinned(static_cast<std::size_t>(nchunks), 0);
  std::vector<std::uint8_t> is_moved(static_cast<std::size_t>(count), 0);
  pool.for_static_chunks(count, nchunks, [&](int c, index_t begin, index_t end) {
    const auto sc = static_cast<std::size_t>(c);
    auto& mv = moved[sc];
    index_t* arr = arrive.data() + sc * nt_sz;
    index_t* dep = depart.data() + sc * nt_sz;
    index_t rebinned = 0;
    for (index_t orig = begin; orig < end; ++orig) {
      bool differs = false;
      for (int d = 0; d < dim; ++d) {
        const auto sd = static_cast<std::size_t>(d);
        differs |= bits_differ(prev[sd][orig], nptr[sd][orig]);
      }
      if (!differs) continue;
      const std::int32_t nt = tables.task(nptr, orig);
      const std::int32_t ot = ds.task_of[static_cast<std::size_t>(orig)];
      mv.push_back({orig, nt});
      is_moved[static_cast<std::size_t>(orig)] = 1;
      ++arr[nt];
      ++dep[ot];
      rebinned += nt != ot ? 1 : 0;
    }
    chunk_rebinned[sc] = rebinned;
  });
  index_t nmoved = 0;
  for (const auto& mv : moved) nmoved += static_cast<index_t>(mv.size());
  if (nmoved == 0) {
    obs::count("nufft.plan.update_noops");
    return UpdatePath::kNoop;
  }
  if (diff_t0 != 0) obs::record_span("prep.update.diff", "prep", diff_t0, now_ns(), count);
  if (static_cast<double>(nmoved) > opts.rebuild_fraction * static_cast<double>(count)) {
    return rebuild();
  }

  // --- layout check: patch a copy of the histograms, re-run the boundary
  // walk. Fixed layouts are geometry-only and can never move. Variable
  // layouts fall back on any boundary change: a moved boundary re-bins every
  // sample near it, exactly the regime where the cold pipeline wins anyway.
  // The copy becomes the next frame's baseline only at publish. ---
  std::array<std::vector<index_t>, 3> cell_counts;
  if (cfg.variable_partitions) {
    cell_counts = ds.cell_counts;
    for (const auto& mv : moved) {
      for (const Moved& m : mv) {
        for (int d = 0; d < dim; ++d) {
          const auto sd = static_cast<std::size_t>(d);
          const index_t oc = tables.cell(d, prev[sd][m.orig]);
          const index_t nc = tables.cell(d, nptr[sd][m.orig]);
          if (oc != nc) {
            --cell_counts[sd][static_cast<std::size_t>(oc)];
            ++cell_counts[sd][static_cast<std::size_t>(nc)];
          }
        }
      }
    }
    std::array<std::vector<index_t>, 3> hists;
    for (int d = 0; d < dim; ++d) {
      const auto sd = static_cast<std::size_t>(d);
      hists[sd].resize(static_cast<std::size_t>(g.m[sd]) + 1);
      hists[sd][0] = 0;
      for (index_t i = 0; i < g.m[sd]; ++i) {
        hists[sd][static_cast<std::size_t>(i) + 1] =
            hists[sd][static_cast<std::size_t>(i)] + cell_counts[sd][static_cast<std::size_t>(i)];
      }
    }
    const int target = cfg.partitions_per_dim > 0
                           ? cfg.partitions_per_dim
                           : detail::auto_partitions_per_dim(cfg.threads, dim);
    const auto wceil = static_cast<index_t>(std::ceil(cfg.kernel_radius));
    const PartitionLayout nl =
        make_variable_layout_from_hists(dim, g.m, hists, count, target, 2 * wceil + 1);
    bool same = nl.dim == pp.layout.dim;
    for (int d = 0; same && d < dim; ++d) {
      const auto sd = static_cast<std::size_t>(d);
      same = nl.num_parts[sd] == pp.layout.num_parts[sd] && nl.bounds[sd] == pp.layout.bounds[sd];
    }
    if (!same) return rebuild();
  }

  fault::inject_alloc("prep.update.alloc");

  // --- rebin: new per-task offsets, arrival cursors, parallel scatter. The
  // chunks run in original order, so each task's arrivals come out
  // idx-ascending; each carries its key and coordinates, read while the
  // chunk's coordinates are being streamed anyway. ---
  std::vector<index_t> offset(nt_sz + 1, 0);
  std::vector<index_t> arrival_offset(nt_sz + 1, 0);
  std::vector<char> dirty(nt_sz, 0);
  std::vector<Arrival> arrivals(static_cast<std::size_t>(nmoved));
  std::vector<Arrival> sort_tmp(static_cast<std::size_t>(nmoved));
  for (int d = 0; d < dim; ++d) {
    ds.coords_scratch[static_cast<std::size_t>(d)].resize(static_cast<std::size_t>(count));
  }
  ds.orig_scratch.resize(static_cast<std::size_t>(count));
  int dirty_tasks = 0;
  {
    obs::Span rebin_span("prep.update.rebin", "prep", nmoved);
    for (std::size_t k = 0; k < nt_sz; ++k) {
      index_t arrived = 0;
      index_t departed = 0;
      for (std::size_t c = 0; c < static_cast<std::size_t>(nchunks); ++c) {
        arrived += arrive[c * nt_sz + k];
        departed += depart[c * nt_sz + k];
      }
      arrival_offset[k + 1] = arrival_offset[k] + arrived;
      offset[k + 1] = offset[k] + pp.tasks[k].count() - departed + arrived;
      dirty[k] = arrived + departed > 0 ? 1 : 0;
      dirty_tasks += dirty[k];
    }
    pool.column_exclusive_scan(arrive, nchunks, ntasks, arrival_offset.data());
    pool.for_static_chunks(count, nchunks, [&](int c, index_t, index_t) {
      const auto sc = static_cast<std::size_t>(c);
      index_t* cur = arrive.data() + sc * nt_sz;
      for (const Moved& m : moved[sc]) {
        Arrival& a = arrivals[static_cast<std::size_t>(cur[m.task]++)];
        a.key = tables.key(nptr, m.orig);
        a.idx = m.orig;
        for (int d = 0; d < dim; ++d) {
          a.x[static_cast<std::size_t>(d)] = nptr[static_cast<std::size_t>(d)][m.orig];
        }
      }
    });
  }

  // --- merge: per task, largest first like the cold reorder pass; each task
  // writes a disjoint range of the scratch arrays. ---
  {
    obs::Span merge_span("prep.update.merge", "prep", dirty_tasks);
    const std::vector<int> order = detail::largest_first(offset);
    std::array<const float*, 3> old_coords{nullptr, nullptr, nullptr};
    std::array<float*, 3> out_coords{nullptr, nullptr, nullptr};
    for (int d = 0; d < dim; ++d) {
      const auto sd = static_cast<std::size_t>(d);
      old_coords[sd] = pp.coords[sd].data();
      out_coords[sd] = ds.coords_scratch[sd].data();
    }
    const index_t* old_orig = pp.orig_index.data();
    index_t* out_orig = ds.orig_scratch.data();
    std::atomic<int> next{0};
    pool.run_on_all([&](int) {
      for (;;) {
        const int j = next.fetch_add(1, std::memory_order_relaxed);
        if (j >= ntasks) break;
        const auto sk = static_cast<std::size_t>(order[static_cast<std::size_t>(j)]);
        const index_t ob = pp.tasks[sk].begin;
        const index_t oe = pp.tasks[sk].end;
        index_t w = offset[sk];
        if (dirty[sk] == 0) {
          // Same members, bitwise-same coordinates, same keys — the old
          // segment is already in (key, idx) order; only its base offset may
          // have shifted.
          std::copy(old_orig + ob, old_orig + oe, out_orig + w);
          for (int d = 0; d < dim; ++d) {
            const auto sd = static_cast<std::size_t>(d);
            std::copy(old_coords[sd] + ob, old_coords[sd] + oe, out_coords[sd] + w);
          }
          continue;
        }
        Arrival* ai = arrivals.data() + arrival_offset[sk];
        Arrival* const ae = arrivals.data() + arrival_offset[sk + 1];
        detail::sort_task(ai, sort_tmp.data() + arrival_offset[sk], ae - ai,
                          tables.total_key_bits());
        const auto emit_arrival = [&](const Arrival& a) {
          out_orig[w] = a.idx;
          for (int d = 0; d < dim; ++d) {
            const auto sd = static_cast<std::size_t>(d);
            out_coords[sd][w] = a.x[sd];
          }
          ++w;
        };
        // One pass over the old range: skip the moved samples, recompute
        // each retained key from its unchanged coordinates, and merge the
        // sorted arrivals in ahead of every retained sample they precede.
        for (index_t i = ob; i < oe; ++i) {
          const index_t orig = old_orig[i];
          if (is_moved[static_cast<std::size_t>(orig)] != 0) continue;
          const detail::KeyIdx retained{tables.key(old_coords, i), orig};
          for (; ai != ae && detail::key_idx_less(*ai, retained); ++ai) emit_arrival(*ai);
          out_orig[w] = orig;
          for (int d = 0; d < dim; ++d) {
            const auto sd = static_cast<std::size_t>(d);
            out_coords[sd][w] = old_coords[sd][i];
          }
          ++w;
        }
        for (; ai != ae; ++ai) emit_arrival(*ai);
      }
    });
  }

  // --- publish: swap the double buffers (the old arrays become next frame's
  // scratch), patch the task table in place, and commit the bookkeeping.
  // Nothing here allocates. Layout, graph and boxes are untouched by
  // construction. ---
  int privatized_tasks = 0;
  {
    obs::Span publish_span("prep.update.publish", "prep", nmoved);
    pp.orig_index.swap(ds.orig_scratch);
    for (int d = 0; d < dim; ++d) {
      pp.coords[static_cast<std::size_t>(d)].swap(ds.coords_scratch[static_cast<std::size_t>(d)]);
    }
    for (std::size_t k = 0; k < nt_sz; ++k) {
      pp.tasks[k].begin = offset[k];
      pp.tasks[k].end = offset[k + 1];
      const index_t cnt = pp.tasks[k].count();
      pp.weights[k] = cnt;
      // The Eq. 6 threshold depends only on (count, threads, dim, factor) —
      // all unchanged — so only the per-task counts can flip a mark.
      const bool priv =
          cfg.selective_privatization && cnt > pp.privatization_threshold && cfg.threads > 1;
      pp.privatized[k] = priv ? 1 : 0;
      privatized_tasks += priv ? 1 : 0;
    }
    pool.for_static_chunks(count, nchunks, [&](int c, index_t, index_t) {
      for (const Moved& m : moved[static_cast<std::size_t>(c)]) {
        ds.task_of[static_cast<std::size_t>(m.orig)] = m.task;
        for (int d = 0; d < dim; ++d) {
          const auto sd = static_cast<std::size_t>(d);
          ds.prev_coords[sd][static_cast<std::size_t>(m.orig)] = nptr[sd][m.orig];
        }
      }
    });
    if (cfg.variable_partitions) ds.cell_counts.swap(cell_counts);
  }

  index_t rebinned = 0;
  for (const index_t r : chunk_rebinned) rebinned += r;
  pp.stats = PreprocessStats{};
  pp.stats.threads_used = pool.size();
  pp.stats.tasks = ntasks;
  pp.stats.privatized_tasks = privatized_tasks;
  pp.stats.warm_update = true;
  pp.stats.rebinned_samples = rebinned;
  pp.stats.dirty_tasks = dirty_tasks;
  pp.stats.update_s = total.seconds();
  obs::count("nufft.plan.updates");
  obs::observe_ns("prep_update_ns", static_cast<std::uint64_t>(pp.stats.update_s * 1e9));
  return UpdatePath::kWarm;
}

}  // namespace nufft
