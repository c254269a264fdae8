// Internal helpers shared by the cold preprocessing pipeline
// (preprocess.cpp) and the delta-update path (preprocess_update.cpp).
//
// The two TUs must agree bit for bit: the update path recomputes partition
// targets, reorder keys and per-task sort orders for the samples it touches,
// and the determinism contract promises the result equals a cold rebuild.
// Keeping the shared arithmetic in one header makes that agreement
// structural instead of copy-paste.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "parallel/partitioner.hpp"

namespace nufft::detail {

// Auto partition count per dimension: aim for ~16·threads tasks in total so
// the priority queue has slack to balance, rounded to an even count.
inline int auto_partitions_per_dim(int threads, int dim) {
  const double total_tasks = 16.0 * std::max(1, threads);
  int p = static_cast<int>(std::llround(std::pow(total_tasks, 1.0 / dim)));
  p = std::max(2, p);
  if (p % 2 != 0) ++p;
  return p;
}

inline int bits_for(std::uint64_t maxval) {
  return maxval == 0 ? 0 : 64 - __builtin_clzll(maxval);
}

// Bit layout of the tile-scan reorder key: tile coordinates (scan-line order
// over tiles), then cell coordinates within the tile (scan-line order again)
// — "simple scan-line order with one level of tiling" (paper §III-D). Field
// widths are derived from the grid extent and tile edge: a fixed width would
// silently alias tile coordinates on wide grids (the old 10-bit packing broke
// past 1023 tiles per dimension) and quietly destroy reorder locality.
struct KeyPacking {
  std::array<int, 3> tile_bits{0, 0, 0};
  std::array<int, 3> cell_bits{0, 0, 0};
  int total_bits = 0;
};

inline KeyPacking make_key_packing(int dim, const std::array<index_t, 3>& extent, index_t tile) {
  KeyPacking p;
  for (int d = 0; d < dim; ++d) {
    const auto sd = static_cast<std::size_t>(d);
    const index_t ntiles = (extent[sd] + tile - 1) / tile;
    p.tile_bits[sd] = bits_for(static_cast<std::uint64_t>(ntiles - 1));
    p.cell_bits[sd] = bits_for(static_cast<std::uint64_t>(tile - 1));
    p.total_bits += p.tile_bits[sd] + p.cell_bits[sd];
  }
  NUFFT_CHECK_MSG(p.total_bits <= 64,
                  "tile-reorder key needs " << p.total_bits
                                            << " bits; grid too large for a 64-bit key");
  return p;
}

// The definition of a cell's reorder key. No per-sample loop calls it: the
// pipeline reads the key through CellTables, which are tested against it.
inline std::uint64_t reorder_key(const std::array<index_t, 3>& cell, int dim, index_t tile,
                                 const KeyPacking& pk) {
  std::uint64_t key = 0;
  for (int d = 0; d < dim; ++d) {
    const auto sd = static_cast<std::size_t>(d);
    key = (key << pk.tile_bits[sd]) | static_cast<std::uint64_t>(cell[sd] / tile);
  }
  for (int d = 0; d < dim; ++d) {
    const auto sd = static_cast<std::size_t>(d);
    key = (key << pk.cell_bits[sd]) | static_cast<std::uint64_t>(cell[sd] % tile);
  }
  return key;
}

// Per-cell lookup tables for the two per-sample functions of the pipeline:
// the owning task and the reorder key. Both are exact:
//  * PartitionLayout::locate(d, x) is an upper_bound of (index_t)x over
//    integer bounds that start at 0 and end at m, then clamped — so it
//    depends on x only through the cell clamp((index_t)x, 0, m − 1);
//  * reorder_key gives every dimension's tile and cell fields their own
//    bits, so a cell's key is the OR of one entry per dimension, each the key
//    of a cell vector that is zero in every other dimension.
// Built per build or update call from the layout and KeyPacking (a few
// m-entry arrays); the plan stores none of it.
class CellTables {
 public:
  /// `reorder` false leaves the key tables empty: every key is 0 and the
  /// (key, idx) order degenerates to the bin pass's idx order.
  CellTables(const PartitionLayout& layout, const std::array<index_t, 3>& extent, bool reorder,
             index_t tile)
      : dim_(layout.dim), m_(extent), nparts_(layout.num_parts) {
    const KeyPacking pk = reorder ? make_key_packing(dim_, extent, tile) : KeyPacking{};
    key_bits_ = pk.total_bits;
    for (int d = 0; d < dim_; ++d) {
      const auto sd = static_cast<std::size_t>(d);
      const auto& b = layout.bounds[sd];
      auto& part = part_[sd];
      part.resize(static_cast<std::size_t>(m_[sd]));
      // One walk over the bounds: p is the last partition with b[p] <= c,
      // kept inside [0, num_parts − 1] as locate() clamps it.
      int p = 0;
      for (index_t c = 0; c < m_[sd]; ++c) {
        while (p + 1 < nparts_[sd] && b[static_cast<std::size_t>(p) + 1] <= c) ++p;
        part[static_cast<std::size_t>(c)] = p;
      }
      if (!reorder) continue;
      auto& key = key_[sd];
      key.resize(static_cast<std::size_t>(m_[sd]));
      std::array<index_t, 3> cell{0, 0, 0};
      for (index_t c = 0; c < m_[sd]; ++c) {
        cell[sd] = c;
        key[static_cast<std::size_t>(c)] = reorder_key(cell, dim_, tile, pk);
      }
    }
  }

  /// Grid cell of coordinate x along d, clamped into [0, m).
  index_t cell(int d, float x) const {
    return std::clamp<index_t>(static_cast<index_t>(x), 0, m_[static_cast<std::size_t>(d)] - 1);
  }
  /// Partition index of cell c along d (== layout.locate(d, c)).
  int part(int d, index_t c) const {
    return part_[static_cast<std::size_t>(d)][static_cast<std::size_t>(c)];
  }
  /// Dimension d's bits of the reorder key of cell c along d.
  std::uint64_t key_bits(int d, index_t c) const {
    return key_[static_cast<std::size_t>(d)][static_cast<std::size_t>(c)];
  }
  /// Bits a key can occupy (0 without reorder): the radix sort's pass count.
  int total_key_bits() const { return key_bits_; }

  /// Flattened task id of sample i of the coordinate arrays x[0..dim).
  std::int32_t task(const std::array<const float*, 3>& x, index_t i) const {
    std::int32_t t = 0;
    for (int d = 0; d < dim_; ++d) {
      const auto sd = static_cast<std::size_t>(d);
      t = t * nparts_[sd] + part_[sd][static_cast<std::size_t>(cell(d, x[sd][i]))];
    }
    return t;
  }
  /// Reorder key of sample i of the coordinate arrays x[0..dim).
  std::uint64_t key(const std::array<const float*, 3>& x, index_t i) const {
    if (key_bits_ == 0) return 0;
    std::uint64_t k = 0;
    for (int d = 0; d < dim_; ++d) {
      const auto sd = static_cast<std::size_t>(d);
      k |= key_[sd][static_cast<std::size_t>(cell(d, x[sd][i]))];
    }
    return k;
  }

 private:
  int dim_;
  std::array<index_t, 3> m_;
  std::array<int, 3> nparts_;
  int key_bits_ = 0;
  std::array<std::vector<std::int32_t>, 3> part_;
  std::array<std::vector<std::uint64_t>, 3> key_;
};

// The reordered position of a sample within its task is determined by
// (key, orig_index) ascending — a total order, so any correct sort produces
// the same permutation regardless of algorithm or which context runs it.
struct KeyIdx {
  std::uint64_t key;
  index_t idx;
};

// (key, idx) order of any records with those two members.
template <class A, class B>
bool key_idx_less(const A& x, const B& y) {
  return x.key != y.key ? x.key < y.key : x.idx < y.idx;
}

// Below this an LSD pass costs more in counter zeroing than the comparison
// sort it replaces.
constexpr index_t kRadixCutoff = 128;

// Sort one task's run of records (KeyIdx, or any record with `key` and `idx`
// members) into (key, idx) order. `a` must arrive idx-ascending (the stable
// counting-sort order of the cold bin pass, or the chunk-ordered arrival
// scatter of an update): the LSD radix sort over the low `key_bits` bits in
// 8-bit digits is stable, so stability alone then reproduces the (key, idx)
// total order. `tmp` holds n records of scratch.
template <class Rec>
void sort_task(Rec* a, Rec* tmp, index_t n, int key_bits) {
  if (n < kRadixCutoff) {
    std::sort(a, a + n, key_idx_less<Rec, Rec>);
    return;
  }
  const int passes = (key_bits + 7) / 8;
  Rec* src = a;
  Rec* dst = tmp;
  for (int p = 0; p < passes; ++p) {
    const int shift = p * 8;
    std::array<index_t, 256> cnt{};
    for (index_t i = 0; i < n; ++i) ++cnt[(src[i].key >> shift) & 0xff];
    if (cnt[(src[0].key >> shift) & 0xff] == n) continue;  // uniform digit
    index_t running = 0;
    for (auto& c : cnt) {
      const index_t v = c;
      c = running;
      running += v;
    }
    for (index_t i = 0; i < n; ++i) dst[cnt[(src[i].key >> shift) & 0xff]++] = src[i];
    std::swap(src, dst);
  }
  if (src != a) std::copy(src, src + n, a);
}

// Task ids in decreasing order of their sample counts (ties by id): the
// scheduler's priority discipline, used to dispatch the independent per-task
// sorts so the big tasks start before the long tail of small ones.
inline std::vector<int> largest_first(const std::vector<index_t>& offset) {
  std::vector<int> order(offset.size() - 1);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    const index_t ca = offset[static_cast<std::size_t>(a) + 1] - offset[static_cast<std::size_t>(a)];
    const index_t cb = offset[static_cast<std::size_t>(b) + 1] - offset[static_cast<std::size_t>(b)];
    return ca != cb ? ca > cb : a < b;
  });
  return order;
}

}  // namespace nufft::detail
