// Per-cell lookup tables of the preprocessing pipeline
// (core/preprocess_detail.hpp detail::CellTables) against their
// definitions: PartitionLayout::locate for the partition tables and
// reorder_key for the key tables. Both the cold build and the warm update
// read a sample's task and key only through these tables, so any mismatch
// here would move samples between tasks or reorder them. Part of the
// `preproc` suite, so the sanitizer configs (tools/run_fuzz_sanitized.sh)
// check the clamped-cell indexing.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/preprocess_detail.hpp"
#include "parallel/partitioner.hpp"
#include "test_util.hpp"

namespace nufft {
namespace {

using datasets::TrajectoryType;
using detail::CellTables;

struct Case {
  std::string name;
  int dim;
  index_t n;  // image size; the grid is 2n per dimension
  bool variable;
  index_t tile;
};

PartitionLayout make_layout(const Case& c, const GridDesc& g) {
  constexpr index_t kMinWidth = 5;  // 2·ceil(W) + 1 at W = 2
  const int target = detail::auto_partitions_per_dim(8, c.dim);
  if (!c.variable) return make_fixed_layout(c.dim, g.m, target, kMinWidth);
  const auto set = testing::small_trajectory(TrajectoryType::kRadial, c.dim, c.n, 6000);
  std::array<const float*, 3> coords{nullptr, nullptr, nullptr};
  for (int d = 0; d < c.dim; ++d) {
    coords[static_cast<std::size_t>(d)] = set.coords[static_cast<std::size_t>(d)].data();
  }
  return make_variable_layout(c.dim, g.m, coords, set.count(), target, kMinWidth);
}

std::vector<Case> cases() {
  std::vector<Case> out;
  for (const bool variable : {false, true}) {
    for (const index_t tile : {index_t{8}, index_t{5}}) {
      const std::string lay = variable ? "variable" : "fixed";
      const std::string t = "tile" + std::to_string(tile);
      out.push_back({"1d_" + lay + "_" + t, 1, 64, variable, tile});
      out.push_back({"2d_" + lay + "_" + t, 2, 32, variable, tile});
      out.push_back({"3d_" + lay + "_" + t, 3, 16, variable, tile});
      // The grids of PreprocParallel.WideGrid*: 2048 tiles per dimension at
      // tile 8, and a tile wider than 1024 cells.
      out.push_back({"2d_wide_" + lay + "_" + t, 2, 8192, variable, tile});
    }
    out.push_back({std::string("1d_wide_tile2048_") + (variable ? "variable" : "fixed"), 1, 8192,
                   variable, 2048});
  }
  return out;
}

// Partition index and key of coordinate x along d, read through the tables,
// against locate() and reorder_key() of the clamped cell.
void expect_coordinate(const CellTables& t, const PartitionLayout& layout, const GridDesc& g,
                       index_t tile, const detail::KeyPacking& pk, int d, float x) {
  const auto sd = static_cast<std::size_t>(d);
  const index_t cell = t.cell(d, x);
  EXPECT_EQ(cell, std::clamp<index_t>(static_cast<index_t>(x), 0, g.m[sd] - 1)) << "x " << x;
  EXPECT_EQ(t.part(d, cell), layout.locate(d, x)) << "dim " << d << " x " << x;
  std::array<index_t, 3> onehot{0, 0, 0};
  onehot[sd] = cell;
  EXPECT_EQ(t.key_bits(d, cell), detail::reorder_key(onehot, g.dim, tile, pk))
      << "dim " << d << " x " << x;
}

TEST(CellTables, EqualTheirDefinitions) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const GridDesc g = make_grid(c.dim, c.n, 2.0);
    const PartitionLayout layout = make_layout(c, g);
    const CellTables t(layout, g.m, true, c.tile);
    const detail::KeyPacking pk = detail::make_key_packing(c.dim, g.m, c.tile);
    EXPECT_EQ(t.total_key_bits(), pk.total_bits);
    for (int d = 0; d < c.dim; ++d) {
      const auto sd = static_cast<std::size_t>(d);
      // Every cell.
      for (index_t cell = 0; cell < g.m[sd]; ++cell) {
        ASSERT_EQ(t.part(d, cell), layout.locate(d, static_cast<float>(cell)))
            << "dim " << d << " cell " << cell;
        std::array<index_t, 3> onehot{0, 0, 0};
        onehot[sd] = cell;
        ASSERT_EQ(t.key_bits(d, cell), detail::reorder_key(onehot, c.dim, c.tile, pk))
            << "dim " << d << " cell " << cell;
      }
      // The coordinates where a lookup could round the wrong way: each
      // interior bound and the float just below it, 0, and the float just
      // below m.
      const auto& b = layout.bounds[sd];
      for (std::size_t p = 1; p + 1 < b.size(); ++p) {
        const auto bound = static_cast<float>(b[p]);
        expect_coordinate(t, layout, g, c.tile, pk, d, bound);
        expect_coordinate(t, layout, g, c.tile, pk, d, std::nextafter(bound, 0.0f));
      }
      expect_coordinate(t, layout, g, c.tile, pk, d, 0.0f);
      expect_coordinate(t, layout, g, c.tile, pk, d,
                        std::nextafter(static_cast<float>(g.m[sd]), 0.0f));
    }
    // Random cells: a sample's key is the OR of its per-dimension entries,
    // and its task is the flattened per-dimension partition.
    Rng rng(1234);
    std::array<fvec, 3> x;
    for (int d = 0; d < c.dim; ++d) x[static_cast<std::size_t>(d)].resize(500);
    for (std::size_t i = 0; i < 500; ++i) {
      for (int d = 0; d < c.dim; ++d) {
        const auto sd = static_cast<std::size_t>(d);
        x[sd][i] = static_cast<float>(rng.uniform(0.0, static_cast<double>(g.m[sd])));
      }
    }
    std::array<const float*, 3> xp{x[0].data(), x[1].data(), x[2].data()};
    for (index_t i = 0; i < 500; ++i) {
      std::array<index_t, 3> cell{0, 0, 0};
      std::array<int, 3> pc{0, 0, 0};
      std::uint64_t ored = 0;
      for (int d = 0; d < c.dim; ++d) {
        const auto sd = static_cast<std::size_t>(d);
        cell[sd] = t.cell(d, xp[sd][i]);
        pc[sd] = layout.locate(d, xp[sd][i]);
        ored |= t.key_bits(d, cell[sd]);
      }
      ASSERT_EQ(ored, detail::reorder_key(cell, c.dim, c.tile, pk)) << "sample " << i;
      ASSERT_EQ(t.key(xp, i), ored) << "sample " << i;
      ASSERT_EQ(t.task(xp, i), layout.flatten(pc)) << "sample " << i;
    }
  }
}

}  // namespace
}  // namespace nufft
